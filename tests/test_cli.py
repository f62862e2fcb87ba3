import json
import os

import numpy as np
import pytest

from tse.cli import main

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "job_examples")


def write_job(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "prob", "--spec", "/nonexistent.json")
        assert code == 2 and "not found" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "prob", "--spec", str(path))
        assert code == 2 and "line" in err

    def test_unknown_family(self, tmp_path, capsys):
        job = {"distribution": {"family": "weird", "mu": [0], "sigma": [[1]]},
               "box": {"lower": [0], "upper": [1]}}
        code, _, err = run_cli(capsys, "prob", "--spec", write_job(tmp_path, job))
        assert code == 2 and "family" in err

    def test_nonexistent_moment_is_exit_three(self, tmp_path, capsys):
        # an explicitly requested moment that does not exist
        job = {"distribution": {"family": "t", "mu": [0.0], "sigma": [[1.0]],
                                "nu": 1.0},
               "order": [1]}
        code, _, err = run_cli(capsys, "moments", "--spec", write_job(tmp_path, job),
                               "--seed", "1")
        assert code == 3

    def test_nonexistent_tce_is_exit_three(self, tmp_path, capsys):
        job = {"distribution": {"family": "t", "mu": [0.0], "sigma": [[1.0]],
                                "nu": 1.0},
               "alpha": 0.05}
        code, _, _ = run_cli(capsys, "tce", "--spec", write_job(tmp_path, job))
        assert code == 3

    def test_command_mismatch(self, tmp_path, capsys):
        job = {"command": "prob",
               "distribution": {"family": "normal", "mu": [0.0], "sigma": [[1.0]]}}
        code, _, err = run_cli(capsys, "moments", "--spec", write_job(tmp_path, job))
        assert code == 2

    def test_job_not_an_object(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "prob", "--spec", write_job(tmp_path, []))
        assert code == 2 and "object" in err

    def test_grid_without_num(self, tmp_path, capsys):
        job = {"distribution": {"family": "normal", "mu": [0.0], "sigma": [[1.0]]},
               "grid": {"lower": [-1.0], "upper": [1.0]}}
        code, _, err = run_cli(capsys, "pdf-grid", "--spec", write_job(tmp_path, job))
        assert code == 2 and "grid.num" in err

    def test_non_integer_order(self, tmp_path, capsys):
        job = {"distribution": {"family": "normal", "mu": [0.0], "sigma": [[1.0]]},
               "order": ["x"]}
        code, _, err = run_cli(capsys, "moments", "--spec", write_job(tmp_path, job))
        assert code == 2 and "order" in err

    def test_non_numeric_qmc_field(self, tmp_path, capsys):
        job = {"distribution": {"family": "normal", "mu": [0.0], "sigma": [[1.0]]},
               "box": {"lower": [0.0], "upper": [1.0]},
               "qmc": {"max_points": "abc"}}
        code, _, err = run_cli(capsys, "prob", "--spec", write_job(tmp_path, job))
        assert code == 2 and "max_points" in err


class TestJobs:
    def test_prob_full_space(self, tmp_path, capsys):
        job = {"distribution": {"family": "normal", "mu": [0.0], "sigma": [[1.0]]},
               "box": {"lower": ["-inf"], "upper": ["inf"]}}
        code, out, _ = run_cli(capsys, "prob", "--spec", write_job(tmp_path, job))
        assert code == 0
        payload = json.loads(out)
        assert payload["values"]["prob"] == 1.0
        assert payload["version"]

    def test_moments_emit_existence_flags(self, tmp_path, capsys):
        job = {"distribution": {"family": "t", "mu": [0.0], "sigma": [[1.0]],
                                "nu": 1.5},
               "box": {"lower": [0.0], "upper": ["inf"]}}
        code, out, _ = run_cli(capsys, "moments", "--spec", write_job(tmp_path, job))
        assert code == 0
        payload = json.loads(out)
        assert payload["values"]["mean"] is not None
        assert payload["values"]["covariance"] is None
        assert payload["diagnostics"]["existence"] == {"mean": True, "second": False}

    def test_moments_product_order(self, tmp_path, capsys):
        job = {"distribution": {"family": "normal", "mu": [0.0], "sigma": [[1.0]]},
               "box": {"lower": [0.0], "upper": ["inf"]},
               "order": [2]}
        code, out, _ = run_cli(capsys, "moments", "--spec", write_job(tmp_path, job))
        payload = json.loads(out)
        assert code == 0
        assert payload["values"]["moment"] == pytest.approx(1.0, abs=1e-9)

    def _order_job(self, tmp_path, capsys, job):
        code, out, _ = run_cli(capsys, "moments", "--spec", write_job(tmp_path, job))
        assert code == 0
        return json.loads(out)

    def test_moments_order_labelled_direct(self, tmp_path, capsys):
        job = {"distribution": {"family": "t", "mu": [0.0, 0.0],
                                "sigma": [[1.0, 0.3], [0.3, 1.0]], "nu": 6.0},
               "box": {"lower": [-1.0, -1.0], "upper": [1.0, 2.0]},
               "order": [2, 1]}
        payload = self._order_job(tmp_path, capsys, job)
        assert payload["method"] == ["direct"]
        assert payload["diagnostics"] == {}

    def test_moments_order_labelled_out_of_bounds(self, tmp_path, capsys):
        job = {"distribution": {"family": "normal", "mu": [0.0, 0.0],
                                "sigma": [[1.0, 0.2], [0.2, 1.0]]},
               "box": {"lower": [-1.0, -50.0], "upper": [1.0, -49.0]},
               "order": [1, 1]}
        payload = self._order_job(tmp_path, capsys, job)
        # The second coordinate is held at -49, which pulls the first
        # towards its lower limit.
        assert payload["method"] == ["direct", "out-of-bounds"]
        assert 0.0 < payload["values"]["moment"] < 49.0

    def test_moments_order_labelled_mc_rejection(self, tmp_path, capsys):
        # nu = 2.5 at total order 3 on a two-dimensional augmented box.
        job = {"distribution": {"family": "ST", "mu": [0.0], "sigma": [[1.0]],
                                "lambda": [1.5], "nu": 2.5},
               "box": {"lower": [-2.0], "upper": [2.0]},
               "order": [3]}
        payload = self._order_job(tmp_path, capsys, job)
        assert payload["method"] == ["mc-rejection"]
        assert 0.0 < payload["diagnostics"]["mc_stderr"] < 0.01

    def test_moments_order_labelled_mc_gibbs(self, tmp_path, capsys):
        # A remote box leaves rejection sampling too few acceptances.
        job = {"distribution": {"family": "ST", "mu": [0.0], "sigma": [[1.0]],
                                "lambda": [1.5], "nu": 2.5},
               "box": {"lower": [-4.0], "upper": [-3.5]},
               "order": [3]}
        payload = self._order_job(tmp_path, capsys, job)
        assert payload["method"] == ["mc-gibbs"]
        assert payload["diagnostics"]["mc_stderr"] > 0.0

    def test_import_leaves_scipy_integrate_unloaded(self):
        import subprocess
        import sys

        cmd = [sys.executable, "-c",
               "import sys, tse.cli; print('scipy.integrate' in sys.modules)"]
        run = subprocess.run(cmd, capture_output=True, text=True)
        assert run.returncode == 0
        assert run.stdout.strip() == "False"

    def test_jobs_leave_scipy_optimize_and_integrate_unloaded(self):
        # Importing scipy.optimize alone adds about 0.1 s to a cold job.
        import subprocess
        import sys

        code = (
            "import contextlib, glob, io, json, os, sys\n"
            "from tse.cli import main\n"
            f"paths = sorted(glob.glob(os.path.join({EXAMPLES!r}, '*.json')))\n"
            "for path in paths:\n"
            "    with open(path) as fh:\n"
            "        command = json.load(fh)['command']\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main([command, '--spec', path]) == 0, path\n"
            "print(len(paths), [m for m in ('scipy.optimize', 'scipy.integrate',\n"
            "                               'scipy.special') if m in sys.modules])\n")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "10 []"

    def test_import_leaves_scipy_special_unloaded_and_shares_its_ufuncs(self):
        # scipy.special's package import costs a cold job about 0.3 s; a
        # later one finds the ufunc module that tse._special loaded.
        import subprocess
        import sys

        code = ("import sys, tse.cli, tse._special as s\n"
                "print('scipy.special' in sys.modules)\n"
                "import scipy.special\n"
                "print(len(s.__all__), [n for n in s.__all__\n"
                "                       if getattr(scipy.special, n) is not getattr(s, n)])\n")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == ["False", "9 []"]

    def test_special_falls_back_to_the_public_import(self):
        # A finder refuses scipy.special._ufuncs while the stub stands in
        # for scipy.special (it has no __file__); the public import, which
        # the finder lets through, must serve the same job.
        import subprocess
        import sys

        path = os.path.join(EXAMPLES, "normal_prob.json")
        with open(path) as fh:
            argv = [json.load(fh)["command"], "--spec", path]
        code = ("import sys\n"
                "refused = []\n"
                "class Refuse:\n"
                "    @staticmethod\n"
                "    def find_spec(name, path=None, target=None):\n"
                "        if name == 'scipy.special._ufuncs' and \\\n"
                "                not hasattr(sys.modules['scipy.special'], '__file__'):\n"
                "            refused.append(name)\n"
                "            raise ImportError('refused under the stub')\n"
                "sys.meta_path.insert(0, Refuse)\n"
                "import tse._special as s\n"
                "special = sys.modules['scipy.special']\n"
                "assert refused and special.__file__\n"
                "assert all(getattr(s, n) is getattr(special, n) for n in s.__all__)\n"
                "from tse.cli import main\n"
                f"raise SystemExit(main({argv!r}))\n")
        fallback = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        normal = subprocess.run([sys.executable, "-m", "tse.cli", *argv],
                                capture_output=True, text=True)
        assert fallback.returncode == normal.returncode == 0, fallback.stderr
        assert fallback.stdout == normal.stdout != ""

    def test_special_falls_back_for_a_name_outside_the_ufunc_module(self):
        # logsumexp is public in scipy.special but not in its _ufuncs.
        import subprocess
        import sys

        code = ("import sys, tse._special as s\n"
                "assert 'scipy.special' not in sys.modules\n"
                "ndtr, logsumexp = s._ufuncs(['ndtr', 'logsumexp'])\n"
                "special = sys.modules['scipy.special']\n"
                "assert special.__file__\n"
                "print(ndtr is s.ndtr is special.ndtr, logsumexp is special.logsumexp)\n")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "True True"

    def test_deterministic_output_bytes(self, tmp_path, capsys):
        path = os.path.join(EXAMPLES, "t_moments.json")
        code1, out1, _ = run_cli(capsys, "moments", "--spec", path, "--seed", "5")
        code2, out2, _ = run_cli(capsys, "moments", "--spec", path, "--seed", "5")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_deterministic_across_processes(self, tmp_path):
        import subprocess
        import sys

        path = os.path.join(EXAMPLES, "t_moments.json")
        cmd = [sys.executable, "-c",
               "from tse.cli import main; raise SystemExit(main("
               f"['moments', '--spec', {path!r}, '--seed', '5']))"]
        runs = [subprocess.run(cmd, capture_output=True, text=True)
                for _ in range(2)]
        assert all(r.returncode == 0 for r in runs)
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout  # nonempty payload

    def test_prob_error_estimate_is_that_of_the_printed_prob(self, tmp_path, capsys):
        # The printed prob is the augmented-box mass over the selection
        # probability (1/2 for an SN law), so its error estimate is too.
        from tse.elliptical import TruncationBox, rectangle_prob
        from tse.selection import SutParams, build_selection

        job = {"distribution": {"family": "SN", "mu": [0.0], "sigma": [[1.0]],
                                "lambda": [2.0]},
               "box": {"lower": [0.0], "upper": [1.0]}}
        code, out, _ = run_cli(capsys, "prob", "--spec", write_job(tmp_path, job))
        assert code == 0
        payload = json.loads(out)
        spec = build_selection(SutParams([0.0], [[1.0]], [2.0], [0.0], [[1.0]]))
        num, err = rectangle_prob(spec.joint, spec.augmented_box(TruncationBox([0.0], [1.0])))
        assert err > 0.0
        assert payload["diagnostics"]["selection_prob"] == 0.5
        assert payload["values"]["prob"] == num / 0.5
        assert payload["diagnostics"]["error_estimate"] == err / 0.5

    @pytest.mark.parametrize("dim, lower, upper, path", [
        (2, [0.0, 0.0], ["inf", "inf"], "exact"),
        (4, [-1.0] * 4, [1.0] * 4, "exact"),
        (5, [-1.0] * 5, [1.0] * 5, "qmc"),
        pytest.param((4, 2.5), [-1.0] * 4, [1.0] * 4, "qmc", id="4-t2.5-qmc"),
    ])
    def test_prob_reports_its_path(self, tmp_path, capsys, dim, lower, upper, path):
        # dim is the dimension, or the dimension and a Student-t df.
        dim, df = dim if isinstance(dim, tuple) else (dim, None)
        sigma = (0.5 * np.eye(dim) + 0.5).tolist()
        law = {"family": "normal"} if df is None else {"family": "t", "nu": df}
        job = {"distribution": {**law, "mu": [0.0] * dim, "sigma": sigma},
               "box": {"lower": lower, "upper": upper}}
        code, out, _ = run_cli(capsys, "prob", "--spec", write_job(tmp_path, job))
        assert code == 0
        assert json.loads(out)["method"] == [path]

    def test_result_json_roundtrip(self, tmp_path, capsys):
        path = os.path.join(EXAMPLES, "sun_moments.json")
        code, out, _ = run_cli(capsys, "moments", "--spec", path)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) >= {"values", "method", "diagnostics", "version"}
        json.loads(json.dumps(payload))

    def test_out_file(self, tmp_path, capsys):
        job = {"distribution": {"family": "normal", "mu": [0.0], "sigma": [[1.0]]},
               "box": {"lower": [0.0], "upper": [1.0]}}
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "prob", "--spec", write_job(tmp_path, job),
                               "--out", str(out_path))
        assert code == 0 and out == ""
        payload = json.loads(out_path.read_text())
        assert 0.0 < payload["values"]["prob"] < 0.5

    def test_tce_job(self, tmp_path, capsys):
        path = os.path.join(EXAMPLES, "st_tce.json")
        code, out, _ = run_cli(capsys, "tce", "--spec", path)
        payload = json.loads(out)
        assert code == 0
        assert payload["values"]["tce"] > payload["values"]["quantile"]

    def test_tce_sum_additivity(self, tmp_path, capsys):
        path = os.path.join(EXAMPLES, "st_tce_sum.json")
        code, out, _ = run_cli(capsys, "tce-sum", "--spec", path)
        payload = json.loads(out)
        assert code == 0
        contributions = payload["values"]["contributions"]
        assert sum(contributions) == pytest.approx(payload["values"]["total"],
                                                   abs=1e-8)

    def test_mtce_job(self, tmp_path, capsys):
        path = os.path.join(EXAMPLES, "est_mtce.json")
        code, out, _ = run_cli(capsys, "mtce", "--spec", path)
        payload = json.loads(out)
        assert code == 0
        assert len(payload["values"]["mtce"]) == 2

    def test_mtce_with_explicit_thresholds(self, tmp_path, capsys):
        from tse.cli import parse_distribution
        from tse.risk import mtce

        dist = {"family": "EST", "mu": [0.1, -0.3], "sigma": [[1.0, 0.3], [0.3, 1.4]],
                "lambda": [0.9, -0.4], "tau": 0.2, "nu": 7.0}
        job = {"distribution": dist, "thresholds": ["-inf", 0.4]}
        code, out, _ = run_cli(capsys, "mtce", "--spec", write_job(tmp_path, job))
        payload = json.loads(out)
        assert code == 0
        assert payload["values"]["thresholds"] == ["-inf", 0.4]
        spec, _ = parse_distribution(dist)
        assert payload["values"]["mtce"] == mtce(spec, [-np.inf, 0.4]).tolist()

    def test_validate_job(self, capsys):
        path = os.path.join(EXAMPLES, "esn_validate.json")
        code, out, _ = run_cli(capsys, "validate", "--spec", path)
        payload = json.loads(out)
        assert code == 0
        assert payload["values"]["pass"] is True
        assert payload["values"]["worst_abs_z"] <= 4.0

    def test_validate_student_kernel(self, capsys):
        path = os.path.join(EXAMPLES, "est_validate.json")
        code, out, _ = run_cli(capsys, "validate", "--spec", path)
        payload = json.loads(out)
        assert code == 0
        assert payload["values"]["pass"] is True


class TestPdfGrid:
    def test_standard_normal_grid(self, tmp_path, capsys):
        job = {"distribution": {"family": "normal", "mu": [0.0], "sigma": [[1.0]]},
               "grid": {"lower": [-4.0], "upper": [4.0], "num": [161]}}
        code, out, _ = run_cli(capsys, "pdf-grid", "--spec", write_job(tmp_path, job))
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,density"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        peak = rows[np.argmax(rows[:, 1])]
        assert peak[0] == pytest.approx(0.0, abs=1e-12)
        assert peak[1] == pytest.approx(0.3989422804014327, abs=1e-9)

    def test_truncated_grid_normalizes(self, tmp_path, capsys):
        job = {"distribution": {"family": "SN", "mu": [0.0], "sigma": [[1.0]],
                                "lambda": [1.5]},
               "box": {"lower": [-0.5], "upper": [1.5]},
               "grid": {"lower": [-0.5], "upper": [1.5], "num": [2001]}}
        code, out, _ = run_cli(capsys, "pdf-grid", "--spec", write_job(tmp_path, job))
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in out.strip().split("\n")[1:]])
        dx = rows[1, 0] - rows[0, 0]
        riemann = rows[:, 1].sum() * dx
        assert abs(riemann - 1.0) < 1e-3

    def test_skew_t_equals_zero_extension(self, tmp_path, capsys):
        base = {"mu": [0.0], "sigma": [[1.0]], "lambda": [1.2], "nu": 5.0}
        st_job = {"distribution": dict(family="ST", **base),
                  "grid": {"lower": [-3.0], "upper": [3.0], "num": [101]}}
        est_job = {"distribution": dict(family="EST", tau=0.0, **base),
                   "grid": {"lower": [-3.0], "upper": [3.0], "num": [101]}}
        _, out1, _ = run_cli(capsys, "pdf-grid", "--spec", write_job(tmp_path, st_job, "a.json"))
        _, out2, _ = run_cli(capsys, "pdf-grid", "--spec", write_job(tmp_path, est_job, "b.json"))
        r1 = np.array([[float(v) for v in line.split(",")]
                       for line in out1.strip().split("\n")[1:]])
        r2 = np.array([[float(v) for v in line.split(",")]
                       for line in out2.strip().split("\n")[1:]])
        assert np.max(np.abs(r1 - r2)) < 1e-12

    def test_two_dim_grid_shape(self, tmp_path, capsys):
        job = {"distribution": {"family": "t", "mu": [0.0, 0.0],
                                "sigma": [[1.0, 0.2], [0.2, 1.0]], "nu": 5.0},
               "grid": {"lower": [-2.0, -2.0], "upper": [2.0, 2.0], "num": [11, 13]}}
        code, out, _ = run_cli(capsys, "pdf-grid", "--spec", write_job(tmp_path, job))
        lines = out.strip().split("\n")
        assert lines[0] == "x,y,density"
        assert len(lines) == 1 + 11 * 13

    def test_dimension_cap(self, tmp_path, capsys):
        job = {"distribution": {"family": "normal", "mu": [0.0, 0.0, 0.0],
                                "sigma": np.eye(3).tolist()},
               "grid": {"lower": [-1, -1, -1], "upper": [1, 1, 1], "num": [5, 5, 5]}}
        code, _, err = run_cli(capsys, "pdf-grid", "--spec", write_job(tmp_path, job))
        assert code == 2
