import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

import resolvent_lab as rl
from resolvent_lab import potentials, scaling
from resolvent_lab.carleman import CarlemanConfig, Certificate, FamilySummary
from resolvent_lab.cli import _BLOCK_KEYS, main
from resolvent_lab.errors import AccuracyError
from resolvent_lab.radial import ResolventQuery
from resolvent_lab.scaling import GridPolicy, sweep

from conftest import two_pass_ratios


SWEEP_ARTIFACTS = ("sweep.csv", "summary.json", "plotdata.tsv")
README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config():
    """The example config of the README, its first JSON block."""
    return json.loads(re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1))


def write_config(tmp_path, doc, name="config.json"):
    """Write ``doc`` as JSON; a string is written as it is, JSON or not."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc, indent=2))
    return str(path)


def certify_block(**overrides):
    block = {
        "regularity": "lipschitz",
        "beta": 3.0,
        "s": 0.6,
        "E": 1.0,
        "h": 0.5,
        "d": 3,
        "potential": {"name": "zero"},
    }
    block.update(overrides)
    return block


def sweep_block(**overrides):
    block = {
        "d": 3,
        "E": 1.0,
        "s": 0.6,
        "potential": {"name": "zero"},
        "h_values": [0.5, 0.4, 0.3, 0.25, 0.2],
        "eps_values": [1e-2, 1e-4],
        "tail_tol": 0.05,
        "l_max": 2,
    }
    block.update(overrides)
    return block


class TestCertifyCommand:
    def test_free_potential_writes_certificate(self, tmp_path):
        cfg = write_config(tmp_path, {"certify": certify_block()})
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "certificate.json").read_text())
        assert doc["passed"] is True
        assert (out / "manifest.json").exists()

    def test_invalid_s_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"certify": certify_block(s=0.4)})
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "s below lower bound 1/2" in capsys.readouterr().err

    def test_exhausted_search_exits_two(self, tmp_path, capsys):
        block = certify_block(potential={"name": "barrier_well"},
                              C="auto", tau0_max=4.0)
        cfg = write_config(tmp_path, {"certify": block})
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "margin" in capsys.readouterr().err

    def test_failed_run_manifest_records_exit_code(self, tmp_path):
        block = certify_block(potential={"name": "barrier_well"},
                              C="auto", tau0_max=4.0)
        cfg = write_config(tmp_path, {"certify": block})
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "certificate.json").exists()
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 2

    def test_cutoff_radius_past_the_largest_float_exits_one(self, tmp_path, capsys):
        block = {"regularity": "lipschitz", "beta": 1.0625, "s": 0.5137, "h": 0.5}
        cfg = write_config(tmp_path, {"certify": block})
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "ell = 545" in capsys.readouterr().err

    def test_overflow_at_a_later_doubling_exits_two(self, tmp_path, capsys):
        # a = 4**400 is a float and 8**400 is not; C = 1e6 fails tau0 = 4
        block = certify_block(beta=1.1, s=0.51, ell=400.0, C=1e6)
        cfg = write_config(tmp_path, {"certify": block})
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "certification failed" in err and "overflows from tau0 = 8" in err

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"certify": certify_block(bogus=1)})
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_two_dimensional_fallback_via_cli(self, tmp_path, capsys):
        block = {
            "regularity": "holder",
            "alpha": 0.5,
            "s": 0.7,
            "E": 1.0,
            "h": 0.9,
            "d": 2,
            "k": 1.0,
            "C": "auto",
            "tau0_max": 256.0,
            "potential": {"name": "holder_bump",
                          "params": {"c": 0.1, "alpha": 0.5, "freq": 2.0}},
        }
        cfg = write_config(tmp_path, {"certify": block})
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        assert "shallow pair" in capsys.readouterr().out
        doc = json.loads((out / "certificate.json").read_text())
        assert doc["passed"] is True
        assert doc["config"]["k"] == 0.5 and doc["config"]["k0"] == 0.0
        assert doc["config"]["constants"]["mollifier"] is not None

    @pytest.mark.parametrize("block,spelled_out", [
        (certify_block(), {"ell": rl.min_ell(0.25, 3.0, 0.6), "d": 3}),
        ({"regularity": "holder", "alpha": 0.5, "s": 0.7, "h": 0.2,
          "C": "auto", "potential": {"name": "holder_bump",
                                     "params": {"c": 0.1, "freq": 2.0}}},
         {"ell": rl.min_ell(1.0, 4.0, 0.7), "d": 3, "k": 1.0}),
    ])
    def test_omitted_keys_take_the_library_defaults(self, tmp_path, block,
                                                     spelled_out):
        texts = []
        for name, doc in (("short", block), ("long", dict(block, **spelled_out))):
            out = tmp_path / name
            cfg = write_config(tmp_path, {"certify": doc}, f"{name}.json")
            assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
            texts.append((out / "certificate.json").read_text())
        assert texts[0] == texts[1]


class TestSweepCommand:
    def test_default_free_sweep(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep": sweep_block()})
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--threads", "2"]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == ("h,eps,sign,g_measured,g_bound,sectors,lmax,runtime_ms,"
                            "status,matvecs,residual")
        assert len(lines) == 1 + 5 * 2 * 1
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["rows"]) == 10
        for line, row in zip(lines[1:], summary["rows"]):
            cells = line.split(",")
            float(cells[7])  # runtime_ms stays column 8
            assert cells[8] == row["status"] == "ok"
            assert int(cells[9]) == row["matvecs"] > 0
            assert float(cells[10]) == row["residual"] <= 1e-6
        assert (out / "plotdata.tsv").read_text().startswith("# series:")

    def test_sweep_with_certificate_populates_bound(self, tmp_path):
        cert_cfg = write_config(tmp_path, {"certify": certify_block()}, "cert.json")
        cert_out = tmp_path / "cert_out"
        assert main(["certify", "--config", cert_cfg, "--out", str(cert_out)]) == 0
        block = sweep_block(certificate=str(cert_out / "certificate.json"),
                            h_values=[0.5, 0.4, 0.3], eps_values=[1e-2])
        cfg = write_config(tmp_path, {"sweep": block})
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["bound_respected"] is True
        assert all(row["g_bound"] is not None for row in summary["rows"])

    def test_fit_candidate_outside_its_class_is_skipped(self, tmp_path, capsys):
        block = sweep_block(eps_values=[1e-2], fit={"candidates": [["holder", 1.5]]})
        cfg = write_config(tmp_path, {"sweep": block})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "fit skipped: holder class needs alpha in (0, 1)" in capsys.readouterr().err
        assert json.loads((tmp_path / "summary.json").read_text())["fit"] is None

    @pytest.mark.parametrize("potential,h_values,line", [
        ({"name": "zero"}, [0.5, 0.4, 0.3, 0.25, 0.2], "fit: linfty C=0.00280422"),
        # g falls as h falls, so every candidate's C is negative
        ({"name": "holder_bump"}, [0.5, 0.45, 0.4, 0.3], "fit: no growth"),
    ])
    def test_fit_line_names_the_best_class_or_no_growth(self, tmp_path, capsys,
                                                        potential, h_values, line):
        fit = {"candidates": [["lipschitz"], ["holder", 0.5], ["linfty"]]}
        block = sweep_block(potential=potential, h_values=h_values,
                            eps_values=[1e-2], fit=fit)
        cfg = write_config(tmp_path, {"sweep": block})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert line in capsys.readouterr().out.splitlines()
        doc = json.loads((tmp_path / "summary.json").read_text())["fit"]
        growing = [c for c in doc["candidates"] if c["C"] > 0]
        assert doc["degenerate"] is (doc["best"] is None) is (not growing)
        if doc["best"] is not None:
            assert doc["best"]["kind"] == line.split()[1]

    def test_violated_bound_exits_two(self, tmp_path, capsys):
        # a ~ 6e-26 puts the composed bound far below any measured g
        config = CarlemanConfig.lipschitz(3.0, 0.6, 1e-3, h=0.2)
        path = tmp_path / "certificate.json"
        Certificate(config=config, C_used=1.0, r_min=0.0,
                    families=(FamilySummary("carleman_main", 0.0, 1.0),),
                    constants={"c26": [], "mollifier": None}).save(path)
        block = {"s": 0.7, "h_values": [0.5], "l_max": 0, "tail_tol": 0.05,
                 "certificate": str(path)}
        cfg = write_config(tmp_path, {"sweep": block})
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "measured norm exceeded the certified bound" in capsys.readouterr().err
        assert json.loads((out / "summary.json").read_text())["bound_respected"] is False
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 2

    def test_missing_certificate_exits_one(self, tmp_path):
        block = sweep_block(certificate=str(tmp_path / "nope.json"))
        cfg = write_config(tmp_path, {"sweep": block})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_empty_h_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep": sweep_block(h_values=[])})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_rerun_from_manifest_is_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep": sweep_block(
            h_values=[0.5, 0.4], eps_values=[1e-2])})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(out1 / "manifest.json"),
                     "--out", str(out2)]) == 0

        def stripped_csv(path):
            rows = (path / "sweep.csv").read_text().splitlines()
            return [",".join(c for i, c in enumerate(row.split(","))
                             if i != 7) for row in rows]

        assert stripped_csv(out1) == stripped_csv(out2)
        assert (out1 / "summary.json").read_text() == (out2 / "summary.json").read_text()
        assert (out1 / "plotdata.tsv").read_text() == (out2 / "plotdata.tsv").read_text()
        assert (out1 / "manifest.json").read_text() == (out2 / "manifest.json").read_text()

    def test_manifest_records_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        cfg = write_config(tmp_path, {"sweep": sweep_block(
            h_values=[0.5], eps_values=[1e-2])})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
        assert env == {
            "python": "%d.%d.%d" % sys.version_info[:3],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": None,
        }

    def test_default_dr_factor_is_the_library_default(self, tmp_path):
        block = sweep_block(h_values=[0.5, 0.4], eps_values=[1e-2])
        cfg = write_config(tmp_path, {"seed": 5, "sweep": block})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                                  potential=rl.build_potential("zero"))
        direct = sweep(template, [0.5, 0.4], [1e-2],
                       GridPolicy(tail_tol=0.05, l_max=2), signs=(1,), seed=5)
        assert ([row["g_measured"] for row in summary["rows"]]
                == [row.g_measured for row in direct.rows])

    def test_cli_and_library_defaults_agree(self, tmp_path):
        # no seed, signs or threads: both ways take the library's defaults
        block = sweep_block(h_values=[0.5, 0.4], eps_values=[1e-2])
        cfg = write_config(tmp_path, {"sweep": block})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        via_cli = json.loads((tmp_path / "summary.json").read_text())["rows"]
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                                  potential=rl.build_potential("zero"))
        via_library = sweep(template, [0.5, 0.4], [1e-2],
                            GridPolicy(tail_tol=0.05, l_max=2)).rows
        assert len(via_cli) == len(via_library)
        assert [row["sign"] for row in via_cli] == [row.sign for row in via_library]
        assert ([row["g_measured"] for row in via_cli]
                == [row.g_measured for row in via_library])

    def test_k0_and_m_of_a_certificate_file_are_not_read(self, tmp_path):
        out = tmp_path / "out"
        cert_cfg = write_config(tmp_path, {"certify": certify_block()}, "cert.json")
        assert main(["certify", "--config", cert_cfg, "--out", str(out)]) == 0
        path = out / "certificate.json"
        block = sweep_block(certificate=str(path), h_values=[0.5, 0.4],
                            eps_values=[1e-2])
        cfg = write_config(tmp_path, {"seed": 5, "sweep": block})
        summaries = []
        for k0, m in ((0.0, 0.0), (0.5, 2.0)):  # the Lipschitz pair, then the Hölder one
            doc = json.loads(path.read_text())
            doc["config"].update(k0=k0, m=m)
            path.write_text(json.dumps(doc))
            assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
            summaries.append((out / "summary.json").read_text())
        assert summaries[0] == summaries[1]

    def test_tampered_certificate_is_judged_by_its_margins(self, tmp_path, capsys):
        out = tmp_path / "out"
        cert_cfg = write_config(tmp_path, {"certify": certify_block()}, "cert.json")
        assert main(["certify", "--config", cert_cfg, "--out", str(out)]) == 0
        path = out / "certificate.json"
        doc = json.loads(path.read_text())
        for fam in doc["families"]:
            if fam["name"] == "carleman_main":
                fam["min_margin"] = -1.0
        assert doc["passed"] is True
        path.write_text(json.dumps(doc))
        assert Certificate.from_json(path.read_text()).passed is False
        block = sweep_block(certificate=str(path), h_values=[0.5, 0.4],
                            eps_values=[1e-2])
        cfg = write_config(tmp_path, {"sweep": block})
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        assert "passing certificate" in capsys.readouterr().err
        for name in SWEEP_ARTIFACTS:
            assert not (out / name).exists(), name

    def good_run(self, tmp_path, out):
        """A certify, then a sweep into ``out``; returns the sweep's config."""
        cert_cfg = write_config(tmp_path, {"certify": certify_block()}, "cert.json")
        assert main(["certify", "--config", cert_cfg, "--out", str(out)]) == 0
        good = write_config(tmp_path, {"sweep": sweep_block(
            h_values=[0.5, 0.4], eps_values=[1e-2])}, "good.json")
        assert main(["sweep", "--config", good, "--out", str(out)]) == 0
        assert all((out / name).exists() for name in SWEEP_ARTIFACTS)
        return good

    def test_failed_rerun_removes_the_earlier_artifacts(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        good = self.good_run(tmp_path, out)

        def failing(query, *rest, **kwargs):
            raise AccuracyError("forced failure")

        # every row fails numerically
        monkeypatch.setattr(scaling, "weighted_resolvent_norm", failing)
        assert main(["sweep", "--config", good, "--out", str(out)]) == 2
        for name in SWEEP_ARTIFACTS:
            assert not (out / name).exists(), name
        assert (out / "certificate.json").exists()
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 2

    def test_invalid_rerun_removes_the_earlier_artifacts(self, tmp_path):
        out = tmp_path / "out"
        self.good_run(tmp_path, out)
        # dr = h/2 breaks the h/10 assembly rule
        bad = write_config(tmp_path, {"sweep": sweep_block(dr_factor=0.5)}, "bad.json")
        assert main(["sweep", "--config", bad, "--out", str(out)]) == 1
        for name in SWEEP_ARTIFACTS:
            assert not (out / name).exists(), name
        assert (out / "certificate.json").exists()
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 1

    @pytest.mark.parametrize("doc", [
        {"sweep": sweep_block(bogus=1)},  # an unknown key: the config fails to load
        {"certify": certify_block()},  # no sweep block
    ])
    def test_failed_config_load_removes_the_earlier_outputs(self, tmp_path, doc):
        out = tmp_path / "out"
        self.good_run(tmp_path, out)
        bad = write_config(tmp_path, doc, "bad.json")
        assert main(["sweep", "--config", bad, "--out", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["certificate.json"]

    def test_rerun_from_the_manifest_in_out_keeps_it(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"sweep": sweep_block(
            h_values=[0.5, 0.4], eps_values=[1e-2])})
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        manifest = (out / "manifest.json").read_text()
        summary = (out / "summary.json").read_text()
        assert main(["sweep", "--config", str(out / "manifest.json"),
                     "--out", str(out)]) == 0
        assert (out / "manifest.json").read_text() == manifest
        assert (out / "summary.json").read_text() == summary
        # a manifest that no longer loads is left in place, not removed
        broken = manifest.replace('"sweep": {', '"sweep": {"bogus": 1, ', 1)
        (out / "manifest.json").write_text(broken)
        assert main(["sweep", "--config", str(out / "manifest.json"),
                     "--out", str(out)]) == 1
        assert (out / "manifest.json").read_text() == broken
        assert not (out / "summary.json").exists()


class TestMollifyCommand:
    def test_zero_potential_ratios_vanish(self, tmp_path):
        block = {"potential": {"name": "zero"}, "thetas": [0.1, 0.01]}
        cfg = write_config(tmp_path, {"mollify": block})
        out = tmp_path / "out"
        assert main(["mollify", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "mollify.tsv").read_text().strip().splitlines()
        assert lines[0] == "theta\terror_ratio\tderiv_ratio"
        for line in lines[1:]:
            _, err, der = line.split("\t")
            assert float(err) == 0.0 and float(der) == 0.0

    def test_holder_family_ratio_stability(self, tmp_path):
        block = {"potential": {"name": "holder_bump",
                               "params": {"c": 1.0, "freq": 1.0}},
                 "alpha": 0.5, "thetas": [1e-1, 1e-2, 1e-3]}
        cfg = write_config(tmp_path, {"mollify": block})
        out = tmp_path / "out"
        assert main(["mollify", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "mollify.tsv").read_text().strip().splitlines()[1:]
        ratios = [float(row.split("\t")[1]) for row in rows]
        assert max(ratios) / min(ratios) <= 2.0

    def test_theta_out_of_range_exits_one(self, tmp_path):
        block = {"potential": {"name": "holder_bump"}, "thetas": [1.5]}
        cfg = write_config(tmp_path, {"mollify": block})
        assert main(["mollify", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_unknown_potential_lists_names(self, tmp_path, capsys):
        block = {"potential": {"name": "mystery"}, "thetas": [0.1]}
        cfg = write_config(tmp_path, {"mollify": block})
        assert main(["mollify", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "barrier_well" in err and "zero" in err

    def test_readme_table_does_not_depend_on_the_pool_size(self, tmp_path,
                                                           monkeypatch):
        cfg = write_config(tmp_path, readme_config())
        tables = []
        for threads in (1, 2):
            monkeypatch.setattr(potentials, "THREADS", threads)
            out = tmp_path / f"out{threads}"
            assert main(["mollify", "--config", cfg, "--out", str(out)]) == 0
            tables.append((out / "mollify.tsv").read_bytes())
        assert tables[0] == tables[1]

    def test_readme_table_equals_the_two_pass_ratios(self, tmp_path):
        doc = readme_config()
        block = doc["mollify"]
        cfg = write_config(tmp_path, doc)
        assert main(["mollify", "--config", cfg, "--out", str(tmp_path)]) == 0
        model = rl.build_potential(block["potential"]["name"],
                                   {**block["potential"]["params"], "alpha": block["alpha"]})
        grid = np.linspace(0.0, 10.0, 4001)  # the table's default grid
        lines = ["theta\terror_ratio\tderiv_ratio"]
        for theta in block["thetas"]:
            err, der = two_pass_ratios(rl.mollify(model, rl.bump_kernel(), theta), grid)
            lines.append(f"{float(theta)!r}\t{err!r}\t{der!r}")
        assert (tmp_path / "mollify.tsv").read_bytes() == ("\n".join(lines) + "\n").encode()


class TestConvertCommand:
    def test_psi_lipschitz_values(self, tmp_path):
        block = {"map": "psi", "class": "lipschitz", "lambda0": 1.0,
                 "values": [10.0, 100.0]}
        cfg = write_config(tmp_path, {"convert": block})
        out = tmp_path / "out"
        assert main(["convert", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "convert.tsv").read_text().strip().splitlines()[1:]
        assert [float(r.split("\t")[1]) for r in rows] == [10.0, 100.0]

    def test_omega_radial_value(self, tmp_path):
        block = {"map": "omega", "class": "linfty", "radial": True,
                 "values": [math.e ** 16]}
        cfg = write_config(tmp_path, {"convert": block})
        out = tmp_path / "out"
        assert main(["convert", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "convert.tsv").read_text().strip().splitlines()[1:]
        assert float(rows[0].split("\t")[1]) == pytest.approx(0.125, abs=1e-12)

    def test_below_domain_exits_one(self, tmp_path):
        block = {"map": "omega", "class": "lipschitz", "values": [2.0]}
        cfg = write_config(tmp_path, {"convert": block})
        assert main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_invalid_class_exits_one(self, tmp_path):
        block = {"map": "psi", "class": "smooth", "values": [10.0]}
        cfg = write_config(tmp_path, {"convert": block})
        assert main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 1


CONVERT_BLOCK = {"map": "psi", "class": "lipschitz", "values": [10.0]}


def _without(block, key):
    return {k: v for k, v in block.items() if k != key}


@pytest.mark.parametrize("command,doc,named", [
    ("certify", {"certify": _without(certify_block(), "s")}, "'s'"),
    ("certify", {"certify": _without(certify_block(), "h")}, "'h'"),
    ("certify", {"certify": _without(certify_block(), "beta")}, "'beta'"),
    ("sweep", {"sweep": _without(sweep_block(), "s")}, "'s'"),
    ("certify", {"certify": certify_block(
        potential={"name": "zero", "params": [1]})}, "certify.potential.params"),
    ("sweep", {"sweep": sweep_block(
        potential={"name": "power_law", "params": {"bogus": 1}})}, "bogus"),
    ("certify", {"certify": [1]}, "certify block"),
    ("convert", {"convert": 5}, "convert block"),
    ("sweep", {"sweep": sweep_block(fit={"candidates": [[]]})}, "candidates"),
    ("sweep", {"sweep": sweep_block(fit={})}, "'candidates'"),
    ("sweep", {"sweep": sweep_block(signs=["x"])}, "signs"),
    ("sweep", {"sweep": sweep_block(potential="zero")},
     "sweep.potential must be a JSON object"),
    ("mollify", {"mollify": {"potential": "zero", "alpha": 0.5,
                             "thetas": [0.1]}}, "mollify.potential"),
    ("sweep", {"sweep": sweep_block(h_values="abc")}, "sweep.h_values"),
    ("sweep", {"sweep": sweep_block(h_values=None)}, "sweep.h_values"),
    ("sweep", {"sweep": sweep_block(eps_values=["a"])}, "sweep.eps_values"),
    ("sweep", {"sweep": sweep_block(l_max="2")}, "sweep.l_max"),
    ("sweep", {"seed": "x", "sweep": sweep_block()}, "config.seed"),
    ("mollify", {"mollify": {"thetas": ["a"]}}, "mollify.thetas"),
    ("convert", {"convert": {"map": "psi", "class": "lipschitz",
                             "values": ["a"]}}, "convert.values"),
    ("certify", {"certify": certify_block(s="0.6")}, "certify.s"),
    ("sweep", {"sweep": sweep_block(signs=[])}, "signs"),
    ("sweep", {"seed": -1, "sweep": sweep_block()}, "seed"),
    ("sweep", {"sweep": sweep_block(tail_tol=0)}, "tail_tol"),
    ("sweep", {"sweep": sweep_block(dr_factor=0)}, "dr_factor"),
    ("sweep", {"sweep": sweep_block(certificate=".")}, "sweep.certificate"),
    ("mollify", {"mollify": {"thetas": [0.1], "points": 0}}, "mollify.points"),
    # keys that do not apply to the chosen variant
    ("certify", {"certify": certify_block(k=1.0)}, "certify.k"),
    ("certify", {"certify": certify_block(alpha=0.5)}, "certify.alpha"),
    ("certify", {"certify": certify_block(regularity="holder")}, "certify.beta"),
    ("convert", {"convert": {"map": "omega", "class": "linfty", "values": [8.886e6],
                             "lambda0": 1.0}}, "convert.lambda0"),
    ("convert", {"convert": {"map": "psi", "class": "lipschitz", "values": [10.0],
                             "radial": True}}, "convert.radial"),
    # blocks of the commands not being run
    ("convert", {"convert": CONVERT_BLOCK, "sweep": 5}, "sweep block"),
    ("convert", {"convert": CONVERT_BLOCK, "sweep": _without(sweep_block(), "s")},
     "sweep block needs 's'"),
    ("convert", {"convert": CONVERT_BLOCK, "certify": certify_block(
        potential={"name": "zero", "params": [1]})}, "certify.potential.params"),
    ("convert", {"convert": CONVERT_BLOCK, "certify": certify_block(
        regularity="smooth")}, "certify regularity"),
    ("certify", {"certify": certify_block(), "convert": dict(
        CONVERT_BLOCK, radial=True)}, "convert.radial"),
    ("certify", {"certify": certify_block(), "sweep": sweep_block(
        fit={"candidates": [["lipschitz"]], "bogus": 1})}, "sweep.fit"),
    # convert.alpha applies to the holder class only, which needs it
    ("convert", {"convert": dict(CONVERT_BLOCK, alpha=0.5)}, "convert.alpha"),
    ("convert", {"convert": {"map": "omega", "class": "linfty", "values": [8.886e6],
                             "alpha": 0.5}}, "convert.alpha"),
    ("convert", {"convert": dict(CONVERT_BLOCK, **{"class": "holder"})}, "'alpha'"),
    # values out of range; a command may carry its options
    ("sweep", {"sweep": sweep_block(dr_factor=0.2)}, "dr_factor"),
    ("sweep", {"sweep": sweep_block(l_max=-1)}, "l_max"),
    ("sweep", {"sweep": sweep_block(r_min=-1)}, "r_min"),
    ("sweep", {"sweep": sweep_block(d=2, r_min=-1)}, "r_min"),
    ("certify", {"certify": certify_block(r_min=-1)}, "r_min"),
    ("mollify", {"mollify": {"thetas": [0.1], "r_max": -5}}, "mollify.r_max"),
    ("sweep --threads 0", {"sweep": sweep_block()}, "threads"),
    # a tail_tol above 1 leaves r_max = 0 when l_max and r_max_floor add nothing
    ("sweep", {"sweep": {"s": 0.6, "h_values": [0.5], "tail_tol": 2.0, "l_max": 0}},
     "tail_tol, l_max and r_max_floor"),
    # a repeated h, eps or sign would only repeat a row
    ("sweep", {"sweep": sweep_block(h_values=[0.5, 0.5, 0.4])}, "h_values"),
    ("sweep", {"sweep": sweep_block(eps_values=[1e-2, 1e-2])}, "eps_values"),
    ("sweep", {"sweep": sweep_block(signs=["+", "+"])}, "signs"),
    # the fit takes one g per h, whichever sign the row has
    ("sweep", {"sweep": sweep_block(fit={"candidates": [["lipschitz"]], "sign": 1})},
     "unknown keys in sweep.fit: sign"),
    # an empty candidate list would report a fit that tried nothing
    ("sweep", {"sweep": sweep_block(fit={"candidates": []})}, "sweep.fit.candidates"),
    ("certify", {"certify": certify_block(grid={"points_per_decade": 100})},
     "grid too sparse"),
    ("certify", "{not json", "config is not valid JSON"),
    ("certify", [certify_block()], "config must be a JSON object"),
    ("mollify", {"mollify": {"thetas": []}}, "nonempty theta list"),
    ("convert", {"convert": dict(CONVERT_BLOCK, values=[])}, "nonempty value list"),
    # dimension two has no r_min = 0 (radial._inner_radius)
    ("sweep", {"sweep": sweep_block(d=2, r_min=0)}, "r_min"),
])
def test_malformed_config_exits_one_naming_the_key(tmp_path, capsys, command,
                                                   doc, named):
    cfg = write_config(tmp_path, doc)
    assert main([*command.split(), "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and named in err


@pytest.mark.parametrize("command,doc,named", [
    ("certify", {"certify": certify_block(tau0_max=math.nan)}, "certify.tau0_max"),
    ("certify", {"certify": certify_block(C=math.nan)}, "certify.C"),
    ("sweep", {"sweep": sweep_block(r_max_floor=math.inf)}, "sweep.r_max_floor"),
    ("sweep", {"sweep": sweep_block(E=math.inf)}, "sweep.E"),
    ("mollify", {"mollify": {"thetas": [0.1], "r_max": math.inf}}, "mollify.r_max"),
    ("convert", {"convert": dict(CONVERT_BLOCK, values=[math.nan])}, "convert.values"),
])
def test_non_finite_number_exits_one_naming_the_key(tmp_path, capsys, command,
                                                    doc, named):
    # json.load reads the NaN and Infinity that json.dumps writes for these
    cfg = write_config(tmp_path, doc)
    text = Path(cfg).read_text()
    assert "NaN" in text or "Infinity" in text
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"invalid input: {named} must be")
    assert not out.exists()


# cheap valid blocks: every fuzz case replaces one of their keys
FUZZ_BASE = {
    "seed": 7,
    "certify": certify_block(),
    "sweep": {"s": 0.6, "potential": {"name": "zero"}, "h_values": [0.5, 0.4],
              "eps_values": [1e-2], "tail_tol": 0.05, "l_max": 2},
    "mollify": {"potential": {"name": "zero"}, "thetas": [0.1], "points": 101},
    "convert": {"map": "psi", "class": "lipschitz", "values": [10.0]},
}
FUZZ_KEYS = [("sweep", ("seed",))] + [
    (command, (command, key))
    for command, block in FUZZ_BASE.items() if command != "seed"
    for key in block]
WRONGLY_TYPED = st.one_of(
    st.text(max_size=3), st.none(), st.booleans(),
    st.lists(st.one_of(st.none(), st.booleans(), st.text(max_size=2),
                       st.integers(-2, 2)), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(FUZZ_KEYS), value=WRONGLY_TYPED)
def test_wrongly_typed_value_never_exits_three(case, value):
    command, path = case
    doc = json.loads(json.dumps(FUZZ_BASE))
    owner = doc if len(path) == 1 else doc[path[0]]
    owner[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), doc)
        code = main([command, "--config", cfg, "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2), (path, value)


class TestUsage:
    @pytest.mark.parametrize("argv", [
        [], ["sweep"], ["bogus", "--config", "config.json"],
        ["sweep", "--config", "config.json", "--threads", "abc"],
    ])
    def test_usage_error_exits_one(self, argv, capsys):
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    def test_threads_only_on_sweep(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"certify": certify_block()})
        assert main(["certify", "--config", cfg, "--out", str(tmp_path),
                     "--threads", "4"]) == 1
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
    def test_help_exits_zero(self, argv):
        assert main(argv) == 0


class TestTopLevel:
    def test_unknown_top_level_key(self, tmp_path):
        cfg = write_config(tmp_path, {"certify": certify_block(), "extra": {}})
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_missing_block(self, tmp_path):
        cfg = write_config(tmp_path, {"certify": certify_block()})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_under_a_file_exits_one(self, tmp_path, capsys, out):
        (tmp_path / "afile").write_text("kept\n")
        cfg = write_config(tmp_path, {"convert": CONVERT_BLOCK})
        out = str(tmp_path / out)
        assert main(["convert", "--config", cfg, "--out", out]) == 1
        assert f"--out {out!r}" in capsys.readouterr().err
        assert (tmp_path / "afile").read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json"]

    def test_missing_file(self, tmp_path):
        assert main(["certify", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 1

    def test_imports_no_scipy_beyond_linalg(self, tmp_path):
        cfg = write_config(tmp_path, {
            "certify": certify_block(),
            "sweep": sweep_block(h_values=[0.5], eps_values=[1e-2])})
        script = textwrap.dedent(f"""
            import sys
            from resolvent_lab import cli, potentials
            for name in potentials.POTENTIAL_BUILDERS:
                potentials.build_potential(name)
            kernel = potentials.bump_kernel()
            potentials.mollify(potentials.build_potential("holder_bump"), kernel, 0.3)
            for command in ("certify", "sweep"):
                assert cli.main([command, "--config", {cfg!r},
                                 "--out", {str(tmp_path / "out")!r}]) == 0
            loaded = sorted(m for m in sys.modules
                            if m.split(".")[:2] in (["scipy", "integrate"],
                                                    ["scipy", "special"],
                                                    ["scipy", "optimize"]))
            assert not loaded, loaded
        """)
        src = os.path.dirname(os.path.dirname(rl.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr


def _dotted_keys(types, prefix):
    for key, kind in types.items():
        yield f"{prefix}.{key}"
        if isinstance(kind, dict):
            yield from _dotted_keys(kind, f"{prefix}.{key}")


def test_readme_key_table_lists_exactly_the_config_keys():
    readme = README.read_text()
    table = readme[readme.index("| key | type |"):]
    table = table[:table.index("\n\n")].splitlines()[2:]
    keys = {"seed"} | {key for command, types in _BLOCK_KEYS.items()
                       for key in _dotted_keys(types, command)}
    listed = set()
    for line in table:
        # a "*." key stands for that key in every block that has it
        for name in re.findall(r"`([^`]+)`", line.split("|")[1]):
            if name.startswith("*."):
                matches = {key for key in keys if key.partition(".")[2] == name[2:]}
                assert matches, name
                listed |= matches
            elif not name.startswith("--"):  # a command-line option
                listed.add(name)
    assert sorted(listed - keys) == [] and sorted(keys - listed) == []
