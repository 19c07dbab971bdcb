import csv
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from collusion_audit import cli, defaults, estimator

# verdict.json of audit_e2e under --profile smoke at the shipped seed
SMOKE_VERDICT_SHA256 = "3564c6e945397dffe187850b1cb238f9a0fd40eb5022ae95fb448694bb02717e"


def run_cli(args):
    return cli.main(args)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestTables:
    def test_epsilon_table(self, tmp_path):
        assert run_cli(["epsilon_table", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "epsilon_table.csv")
        got = {(int(r["k_max"]), float(r["eps_acc"])): float(r["eps_audit_headline"])
               for r in rows}
        assert got[(10, 1.0)] == pytest.approx(3.16, abs=0.005)
        assert got[(50, 1.0)] == pytest.approx(7.07, abs=0.005)
        assert got[(50, 2.0)] == pytest.approx(14.14, abs=0.005)
        assert got[(100, 1.0)] == pytest.approx(10.00, abs=0.005)
        for r in rows:
            assert float(r["eps_audit_full"]) > 0.0

    def test_cost_table(self, tmp_path):
        assert run_cli(["cost_table", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "cost_table.csv")
        assert len(rows) == 8
        by_cell = {(r["mode"], int(r["index_size"])): r for r in rows}
        opt = by_cell[("optimized", 100_000)]
        assert float(opt["constraints"]) == pytest.approx(8.8e6, rel=0.05)
        assert float(opt["prove_seconds"]) == pytest.approx(8.8, rel=0.05)
        for r in rows:
            assert float(r["verify_ms"]) == 8.0
            assert float(r["setup_seconds"]) == pytest.approx(
                float(r["prove_seconds"]) / 2, rel=1e-9)


class TestAuditE2E:
    def test_exit_zero_and_verdict(self, tmp_path):
        assert run_cli(["audit_e2e", "--out", str(tmp_path)]) == 0
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["status"] == "PASS"
        assert verdict["eps_audit_headline"] == pytest.approx(math.sqrt(10))
        assert verdict["k_max"] == 10
        assert verdict["delta_policy"] == 1e-5
        assert verdict["checks"]["record_claims"] == "ok"
        assert verdict["witnesses"] == []
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 1


class TestConfigHandling:
    def test_unknown_key_exits_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "epsilon_table", "bogus": 1}))
        assert run_cli(["epsilon_table", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 2

    def test_unknown_profile_exits_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "scalar_sweep",
                                   "profile": "fast"}))
        assert run_cli(["scalar_sweep", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 2

    def test_malformed_json_exits_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run_cli(["epsilon_table", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("experiment,trials", [
        ("estimator_calibration", 0),
        ("estimator_calibration", True),
        ("estimator_calibration", 2.0),
        ("topk_sweep", 0),
        ("topk_sweep", 1),
        ("scalar_sweep", "100"),
        ("external_vs_same", 1),
        ("alt_adversaries", -3),
    ])
    def test_trials_the_runner_rejects_exit_two(self, tmp_path, capsys, experiment, trials):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": experiment, "trials": trials}))
        out = tmp_path / "out"
        assert run_cli([experiment, "--config", str(cfg), "--out", str(out)]) == 2
        assert "trials must be an integer >=" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment,trials", [("estimator_calibration", 1),
                                                   ("topk_sweep", 2)])
    def test_fewest_trials_accepted(self, tmp_path, experiment, trials):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": experiment, "trials": trials,
                                   "profile": "smoke"}))
        assert run_cli([experiment, "--config", str(cfg), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("experiment,key,value", [
        ("audit_e2e", "seed", "abc"),
        ("audit_e2e", "seed", True),
        ("scalar_sweep", "--seed", "-1"),  # a flag: checked after the merge
        ("audit_e2e", "out", 5),
        ("audit_e2e", "out", ""),
    ])
    def test_bad_experiment_value_exit_two(self, tmp_path, capsys, experiment, key, value):
        flag = key.startswith("--")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": experiment,
                                   **({} if flag else {key: value})}))
        out = tmp_path / "out"
        argv = [experiment, "--config", str(cfg), *([key, value] if flag else [])]
        if key != "out":
            argv += ["--out", str(out)]
        assert run_cli(argv) == 2
        assert f"{key.lstrip('-')} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["no", "false", 0, None])
    def test_khat_curve_must_be_boolean(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "estimator_calibration", "trials": 1,
                                   "khat_curve": value}))
        out = tmp_path / "out"
        assert run_cli(["estimator_calibration", "--config", str(cfg),
                        "--out", str(out)]) == 2
        assert "khat_curve must be true or false" in capsys.readouterr().err
        assert not out.exists()

    def test_every_experiment_has_a_seed_and_every_rule_a_taker(self):
        assert defaults.EXPERIMENT_SEEDS.keys() == cli.EXPERIMENTS.keys()
        taken = set().union(cli._COMMON_KEYS, *(keys for _, keys in cli.EXPERIMENTS.values()))
        assert set(cli._KEY_RULES) <= taken

    def test_cross_experiment_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "cost_table", "trials": 5}))
        assert run_cli(["cost_table", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 2


class TestCalibrationProfile:
    @pytest.mark.parametrize("profile, curve_trials", [("smoke", 2), ("paper", 20)])
    def test_profile_sets_khat_curve_trials(self, tmp_path, monkeypatch, profile,
                                            curve_trials):
        seen = {}

        def fake_calibrate(**kwargs):
            seen.update(kwargs)
            return estimator.CalibrationReport(theta_grid=[0.8], null_fpr={0.8: 0.0},
                                               khat_by_pattern={}, operating_theta=0.8)

        monkeypatch.setattr(estimator, "calibrate", fake_calibrate)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "estimator_calibration",
                                   "khat_curve": True}))
        assert run_cli(["estimator_calibration", "--config", str(cfg), "--profile",
                        profile, "--out", str(tmp_path / "out")]) == 0
        assert seen["khat_curve"] is True
        assert seen["khat_curve_trials"] == curve_trials


class TestOutputErrors:
    """An output path the CLI cannot write exits 2 with one error line:
    exit 1 means an audit FAIL."""

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run_cli(["epsilon_table", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_figure_out_in_a_missing_directory(self, tmp_path, capsys):
        src = tmp_path / "empty.csv"
        src.write_text("theta,null_fpr,pattern,k_true,mean_khat,tpr\n")
        dst = tmp_path / "absent" / "fig3a.csv"
        assert run_cli(["regen-figure", "--results", str(src),
                        "--figure", "fig3a", "--out", str(dst)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_manifest_path_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "manifest.json").mkdir()
        assert run_cli(["epsilon_table", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_figure_out_is_a_directory(self, tmp_path, capsys):
        src = tmp_path / "empty.csv"
        src.write_text("theta,null_fpr,pattern,k_true,mean_khat,tpr\n")
        dst = tmp_path / "fig3a.csv"
        dst.mkdir()
        assert run_cli(["regen-figure", "--results", str(src),
                        "--figure", "fig3a", "--out", str(dst)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestArtifactsAreNewFiles:
    """Each artifact is created as a new file: whatever was at its path is
    replaced, never truncated and rewritten in place."""

    @pytest.mark.parametrize("experiment,names", [
        ("topk_sweep", ["topk_sweep.csv", "manifest.json"]),
        ("scalar_sweep", ["scalar_sweep.csv", "gates.json", "manifest.json"]),
        ("estimator_calibration", ["estimator_calibration.csv", "operating_theta.json",
                                   "manifest.json"]),
        ("audit_e2e", ["verdict.json", "manifest.json"]),
    ])
    def test_rerun_replaces_each_file(self, tmp_path, experiment, names):
        out, fresh, links = tmp_path / "out", tmp_path / "fresh", tmp_path / "links"
        assert run_cli([experiment, "--out", str(out), "--profile", "smoke",
                        "--seed", "1"]) == 0
        links.mkdir()
        first = {}
        for name in names:
            os.link(out / name, links / name)
            first[name] = (out / name).read_bytes()
        for o in (out, fresh):
            assert run_cli([experiment, "--out", str(o), "--profile", "smoke",
                            "--seed", "2"]) == 0
        for name in names:
            assert (out / name).read_bytes() == (fresh / name).read_bytes()
            # the first run's file is untouched: its bytes, its link count
            assert (links / name).read_bytes() == first[name]
            assert not (out / name).samefile(links / name)
        # the seed is in the manifest, so there a write-through would show
        assert (links / "manifest.json").read_bytes() != (out / "manifest.json").read_bytes()

    def test_symlink_is_replaced_not_followed(self, tmp_path):
        target = tmp_path / "elsewhere.json"
        target.write_text("keep")
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").symlink_to(target)
        assert run_cli(["epsilon_table", "--out", str(out)]) == 0
        assert target.read_text() == "keep"
        assert not (out / "manifest.json").is_symlink()
        assert json.loads((out / "manifest.json").read_text())["seed"] == 0

    def test_figure_out_may_be_its_results(self, tmp_path):
        src = tmp_path / "results.csv"
        src.write_text("k,eps_acc,mode,adversary,auc,delong_se,trials,predicted_auc\n"
                       "1,1,sufficient_stat,pooled_mean,0.6,0.01,100,0.6\n"
                       "4,1,sufficient_stat,pooled_mean,0.7,0.02,100,nan\n")
        assert run_cli(["regen-figure", "--results", str(src),
                        "--figure", "fig1a", "--out", str(src)]) == 0
        rows = read_csv(src)
        assert [(r["x"], r["y"], r["series"]) for r in rows] == [
            ("1", "0.6", "eps1"), ("1", "0.6", "pred-eps1"), ("4", "0.7", "eps1")]


class TestReproducibility:
    def test_smoke_sweep_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(["scalar_sweep", "--out", str(out),
                            "--profile", "smoke", "--seed", "5"]) == 0
        assert (a / "scalar_sweep.csv").read_bytes() == (b / "scalar_sweep.csv").read_bytes()
        assert (a / "gates.json").read_bytes() == (b / "gates.json").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    @pytest.mark.parametrize("experiment,name,digest", [
        ("audit_e2e", "verdict.json", SMOKE_VERDICT_SHA256),
        ("scalar_sweep", "gates.json",
         "316286c2bc71cfcd34288b6a9d2658c65f636cd0f5e5296da415a252ebaf8cb7"),
    ])
    def test_smoke_output_pinned(self, tmp_path, experiment, name, digest):
        # at the shipped seed
        assert run_cli([experiment, "--out", str(tmp_path), "--profile", "smoke"]) == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_audit_runners_from_a_cold_interpreter(self, tmp_path):
        # the audit runners import the verifier half themselves, which only a
        # fresh interpreter runs from a cold start: in this process the test
        # modules have imported audit already
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        for experiment in ("audit_e2e", "cost_table"):
            subprocess.run([sys.executable, "-m", "collusion_audit.cli", experiment,
                            "--out", str(tmp_path / experiment), "--profile", "smoke"],
                           env=env, capture_output=True, timeout=120, check=True)
        verdict = (tmp_path / "audit_e2e" / "verdict.json").read_bytes()
        assert hashlib.sha256(verdict).hexdigest() == SMOKE_VERDICT_SHA256

    def test_smoke_verdict_adds_only_the_rejected_count(self, tmp_path):
        # the verdict.json pinned above, parsed: the verdict from before
        # receipts were checked as evidence, plus its one new key
        before = {
            "checks": {"commitment_integrity": "ok", "ledger_extension": "ok",
                       "policy_cap": "ok", "receipt_consistency": "ok",
                       "record_claims": "ok"},
            "delta_policy": 1e-05, "eps_audit_full": 6.607568650108798,
            "eps_audit_headline": 3.1622776601683795, "k_max": 10, "sampled": None,
            "status": "PASS", "witnesses": [],
        }
        assert run_cli(["audit_e2e", "--out", str(tmp_path), "--profile", "smoke"]) == 0
        assert json.loads((tmp_path / "verdict.json").read_text()) == {
            **before, "receipts_rejected": 0}

    def test_topk_smoke(self, tmp_path):
        assert run_cli(["topk_sweep", "--out", str(tmp_path),
                        "--profile", "smoke"]) == 0
        rows = read_csv(tmp_path / "topk_sweep.csv")
        assert {(int(r["k"]), float(r["eps_acc"])) for r in rows} == {(1, 16.0), (20, 16.0)}
        for r in rows:
            assert 0.0 <= float(r["auc"]) <= 1.0
            assert r["mode"] == "sufficient_stat"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert (manifest["python"], manifest["numpy"], manifest["scipy"]) == (
            platform.python_version(), np.__version__, scipy.__version__)


class TestRegenFigure:
    def _sweep_csv(self, tmp_path):
        out = tmp_path / "sweep"
        run_cli(["scalar_sweep", "--out", str(out), "--profile", "smoke"])
        return out / "scalar_sweep.csv"

    def test_fig1a_rows(self, tmp_path):
        src = self._sweep_csv(tmp_path)
        dst = tmp_path / "fig1a.csv"
        assert run_cli(["regen-figure", "--results", str(src),
                        "--figure", "fig1a", "--out", str(dst)]) == 0
        rows = read_csv(dst)
        # 15 measured + 15 predicted points
        assert len(rows) == 30
        assert {r["series"] for r in rows} == {
            "eps1", "eps2", "eps4", "pred-eps1", "pred-eps2", "pred-eps4"}

    def test_fig1b_collapse_coordinates(self, tmp_path):
        src = self._sweep_csv(tmp_path)
        dst = tmp_path / "fig1b.csv"
        assert run_cli(["regen-figure", "--results", str(src),
                        "--figure", "fig1b", "--out", str(dst)]) == 0
        rows = read_csv(dst)
        assert len(rows) == 15
        xs = sorted(float(r["x"]) for r in rows)
        assert xs[0] == pytest.approx(1.0)          # k=1, eps=1
        assert xs[-1] == pytest.approx(math.sqrt(20) * 4)

    def test_fig3a_rows(self, tmp_path):
        out = tmp_path / "cal"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "estimator_calibration",
                                   "trials": 5, "profile": "smoke"}))
        assert run_cli(["estimator_calibration", "--config", str(cfg),
                        "--out", str(out)]) == 0
        dst = tmp_path / "fig3a.csv"
        assert run_cli(["regen-figure", "--results", str(out / "estimator_calibration.csv"),
                        "--figure", "fig3a", "--out", str(dst)]) == 0
        rows = read_csv(dst)
        assert len(rows) == 16  # one point per theta-grid entry
        assert all(r["series"] == "null_fpr" for r in rows)

    def test_empty_input_gives_header_only(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("k,eps_acc,mode,adversary,auc,delong_se,trials,predicted_auc\n")
        dst = tmp_path / "fig1a.csv"
        assert run_cli(["regen-figure", "--results", str(src),
                        "--figure", "fig1a", "--out", str(dst)]) == 0
        assert dst.read_text().strip() == "x,y,y_err,series"

    def test_unknown_figure_rejected(self, tmp_path):
        src = tmp_path / "x.csv"
        src.write_text("k\n")
        with pytest.raises(SystemExit):
            run_cli(["regen-figure", "--results", str(src),
                     "--figure", "fig9", "--out", str(tmp_path / "y.csv")])

    def test_missing_columns_exit_two(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("k,eps_acc\n1,1.0\n")
        assert run_cli(["regen-figure", "--results", str(src),
                        "--figure", "fig1a", "--out", str(tmp_path / "o.csv")]) == 2

    # per figure, a results file it cannot read: another experiment's CSV,
    # or for fig1b a sweep CSV without its mode column
    SWEEP = ("k,eps_acc,mode,adversary,auc,delong_se,trials,predicted_auc\n"
             "1,1,sufficient_stat,pooled_mean,0.6,0.01,100,0.6\n")
    MISMATCHED = {
        "fig1a": "theta,null_fpr,pattern,k_true,mean_khat,tpr\n0.5,0.1,,,,\n",
        "fig1b": "k,eps_acc,adversary,auc,delong_se,trials,predicted_auc\n"
                 "1,1,pooled_mean,0.6,0.01,100,0.6\n",
        "fig3a": SWEEP,
        "fig3b": SWEEP,
        "figA1": SWEEP,
    }

    @pytest.mark.parametrize("figure", sorted(MISMATCHED))
    def test_mismatched_results_exit_two(self, tmp_path, capsys, figure):
        src = tmp_path / "results.csv"
        src.write_text(self.MISMATCHED[figure])
        dst = tmp_path / "o.csv"
        assert run_cli(["regen-figure", "--results", str(src),
                        "--figure", figure, "--out", str(dst)]) == 2
        assert "missing columns" in capsys.readouterr().err
        assert not dst.exists()

    FIGA1 = "k,eps_acc,delta_auc,combined_se\n1,16,0.01,0.02\n"

    @pytest.mark.parametrize("figure,column,value", [
        ("fig1a", "auc", "abc"),
        ("fig1a", "k", "2.5"),
        ("fig1a", "predicted_auc", "-"),
        ("fig1b", "eps_acc", ""),
        ("figA1", "combined_se", "x"),
        ("fig1a", "k", "0"),
        ("fig1b", "k", "-1"),
        ("figA1", "k", "-1"),
    ])
    def test_unparsable_value_exit_two(self, tmp_path, capsys, figure, column, value):
        # the second data row holds the one value that does not parse (or,
        # for a coalition size k, is below 1)
        header, row = (self.FIGA1 if figure == "figA1" else self.SWEEP).splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        cells[column] = value
        src = tmp_path / "results.csv"
        src.write_text(f"{header}\n{row}\n{','.join(cells.values())}\n")
        dst = tmp_path / "o.csv"
        assert run_cli(["regen-figure", "--results", str(src),
                        "--figure", figure, "--out", str(dst)]) == 2
        assert f"data row 2, column {column!r}: cannot read {value!r}" in capsys.readouterr().err
        assert not dst.exists()

    def test_missing_results_file_exit_two(self, tmp_path):
        dst = tmp_path / "o.csv"
        assert run_cli(["regen-figure", "--results", str(tmp_path / "absent.csv"),
                        "--figure", "fig3a", "--out", str(dst)]) == 2
        assert not dst.exists()
