import csv
import json
import math
import os
import re
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergmanlab import harness
from bergmanlab.cli import build_parser, main as cli_main
from bergmanlab.harness import (COMMANDS, ConfigError, EXIT_COMPUTE,
                                EXIT_CONFIG, EXIT_OK, EXIT_SYMBOL,
                                EXIT_UNSUPPORTED, ExperimentConfig,
                                SymbolParseError, bump_symbol,
                                resolve_symbol, run, symbol_parse)
from bergmanlab.operators import hankel_matrix


# expressions from the symbol grammar, with names out of range, bools,
# and constants beyond floating-point range or that overflow once
# multiplied
_ATOMS = st.one_of(
    st.sampled_from(["z1", "z2", "z3", "z0", "z4"]),
    st.builds("{}({})".format, st.sampled_from(["conj", "abs2"]),
              st.sampled_from(["z1", "z2", "z3", "z4"])),
    st.integers(-5, 5).map(str),
    st.floats(-10.0, 10.0).map(repr),
    st.sampled_from(["True", "False", "1e400", "1e308", "1e200",
                     "1e-400", str(10 ** 400)]),
)
_EXPRS = st.recursive(_ATOMS, lambda sub: st.one_of(
    sub.map("-({})".format),
    st.builds("({}){}({})".format, sub, st.sampled_from(["+", "-", "*"]),
              sub)), max_leaves=10)
# fixed points in the unit polydisc of C^3, out to modulus 0.99
_BATCH = 0.99 * np.random.default_rng(3).uniform(size=(16, 3)) \
    * np.exp(2j * np.pi * np.random.default_rng(4).uniform(size=(16, 3)))

# any JSON value: nested lists and objects over null, bools, ints, floats
# with NaN and infinities, text and some valid field values; object keys
# mix the config's field names with other text
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from(["disc", "egg2", "conj(z1)", "bump"]),
    lambda sub: st.lists(sub, max_size=4) | st.dictionaries(
        st.sampled_from([f.name for f in fields(ExperimentConfig)])
        | st.text(max_size=8), sub, max_size=5),
    max_leaves=12)


def _readme_text():
    return (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")


def _backticked(text):
    return re.findall(r"`([^`]*)`", text)


def _readme_csv_columns():
    """CSV file name: columns, from the Artifacts table of the README."""
    columns = {}
    for line in _readme_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[1].endswith(".csv`"):
            columns[cells[1].strip("`")] = _backticked(cells[2])
    return columns


class TestSymbolParse:
    @given(expr=st.one_of(_EXPRS, st.text(max_size=40)),
           dim=st.integers(1, 3))
    @settings(max_examples=400, deadline=None)
    def test_rejects_or_stays_finite(self, expr, dim):
        try:
            sym = symbol_parse(expr, dim)
        except SymbolParseError:
            return
        z = _BATCH[:, :dim]
        assert np.all(np.isfinite(sym(z)))
        # every route integrates |phi|^2
        assert np.all(np.isfinite(np.abs(sym(z)) ** 2))

    def test_conj_basic(self):
        sym = symbol_parse("conj(z1)", 1)
        z = np.array([[0.3 + 0.4j]])
        assert sym(z)[0] == pytest.approx(0.3 - 0.4j)

    def test_abs2(self):
        sym = symbol_parse("abs2(z1)", 2)
        z = np.array([[0.3 + 0.1j, 0.5]])
        assert sym(z)[0] == pytest.approx(abs(0.3 + 0.1j) ** 2)

    def test_linear_combination(self):
        sym = symbol_parse("conj(z1) + 2*conj(z2) - 0.5", 2)
        z = np.array([[0.1j, 0.2]])
        assert sym(z)[0] == pytest.approx(-0.1j + 0.4 - 0.5)

    @pytest.mark.parametrize("expr, value", [
        ("2.5", lambda z1, z2: 2.5 + 0 * z1),
        ("-conj(z1)", lambda z1, z2: -np.conj(z1)),
        ("-(z1 - 3*conj(z2))*z2", lambda z1, z2: -(z1 - 3 * np.conj(z2)) * z2),
        ("(z1 + conj(z1))*(abs2(z2) - 1)*conj(z1)",
         lambda z1, z2: (z1 + np.conj(z1)) * (abs(z2) ** 2 - 1) * np.conj(z1)),
        ("abs2(z2)*conj(z1)*z1", lambda z1, z2: abs(z2 * z1) ** 2),
    ])
    def test_against_numpy_formulas(self, expr, value):
        rng = np.random.default_rng(11)
        z = 0.6 * (rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2)))
        sym = symbol_parse(expr, 2)
        np.testing.assert_allclose(sym(z), value(*z.T), rtol=1e-13,
                                   atol=1e-15)

    def test_like_terms_cancel_exactly(self):
        sym = symbol_parse("abs2(z1) - z1*conj(z1)", 2)
        z = np.array([[0.3 + 0.7j, -0.2j], [-0.6 + 0.1j, 0.5]])
        assert np.array_equal(sym(z), np.zeros(2))

    @pytest.mark.parametrize("bad", [
        "z1/z2", "z1**2", "z9", "foo(z1)", "conj(z1*z2)", "1j*z1",
        "import os", "z1 +",
    ])
    def test_rejections(self, bad):
        with pytest.raises(SymbolParseError):
            symbol_parse(bad, 2)

    def test_bump_is_compactly_supported(self):
        sym = bump_symbol(2)
        z = np.array([[0.0j, 0.0j], [0.7, 0.0j], [0.3, 0.3j]])
        vals = sym(z)
        assert vals[0] != 0.0
        assert vals[1] == 0.0
        assert vals[2] != 0.0

    def test_resolve_named_builtin(self):
        assert resolve_symbol("bump", 2).label.startswith("bump")
        assert resolve_symbol("conj(z1)", 2).label == "conj(z1)"


class TestConfig:
    def test_roundtrip_lossless(self, tmp_path):
        cfg = ExperimentConfig(domain="polydisc2", symbol="conj(z2)")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(asdict(cfg)))
        back = ExperimentConfig.from_json(path)
        assert back == cfg
        assert back.config_hash() == cfg.config_hash()

    def test_unknown_domain_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(domain="torus")

    def test_unknown_key_rejected(self):
        # scheme, kernel_mode and threads were fields once; they are
        # unknown now
        for key in ("frobnicate", "scheme", "kernel_mode", "threads"):
            with pytest.raises(ConfigError, match="unknown config keys"):
                ExperimentConfig.from_json(json.dumps({"domain": "disc",
                                                       key: 1}))

    def test_nonpositive_field_rejected(self):
        for bad in ({"radius": -1.0}, {"steps": (0.5, 1.5)}, {"steps": ()},
                    {"steps": (0.0, 0.5)}, {"hankel_degrees": (-1,)},
                    {"hankel_degrees": (0, 4)}, {"hankel_degrees": ()},
                    {"graph_neighbors": 0},
                    {"approx_degree": 2.5}, {"rays": "4"}, {"rays": True},
                    {"steps": 0.5}, {"net_radius": "0.5"},
                    {"graph_neighbors": 2.5}, {"seed": 1.5},
                    {"hankel_degrees": (4.5,)}, {"seed": -1}):
            with pytest.raises(ConfigError):
                ExperimentConfig(**bad)

    def test_int_accepted_where_float_expected(self):
        cfg = ExperimentConfig(radius=2, net_radius=1)
        assert (cfg.radius, cfg.net_radius) == (2, 1)

    def test_default_resolution_filled(self):
        assert ExperimentConfig(domain="disc").resolution == 0.025

    @given(value=_JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_any_json_loads_or_is_config_error(self, value):
        # only parsed: a valid config may ask for a huge grid
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "config.json")
            with open(path, "w") as fh:
                json.dump(value, fh)
            try:
                cfg = ExperimentConfig.from_json(path)
            except ConfigError:
                return
        assert isinstance(cfg, ExperimentConfig)

    @pytest.mark.parametrize("text", ["[]", "1", "null", "[{}]", '"abc"'])
    def test_non_object_config_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert cli_main(["kernel", "--config", str(path)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "config error: config must be a JSON object\n"

    def test_missing_config_file_reported(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        with pytest.raises(ConfigError, match="config file not found"):
            ExperimentConfig.from_json(path)
        assert cli_main(["kernel", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.strip() == f"config error: config file not found: {path}"


class TestRun:
    def _cfg(self, tmp_path, **kw):
        kw.setdefault("domain", "disc")
        kw.setdefault("out_dir", str(tmp_path))
        return ExperimentConfig(**kw)

    def test_unknown_command(self, tmp_path, capsys):
        assert run(self._cfg(tmp_path), "explode") == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("unknown command 'explode'")

    def test_kernel_smoke(self, tmp_path):
        cfg = self._cfg(tmp_path, resolution=0.05)
        assert run(cfg, "kernel") == EXIT_OK
        assert (tmp_path / "kernel.csv").exists()
        report = json.loads((tmp_path / "kernel_report.json").read_text())
        assert report["provenance"]["config_hash"] == cfg.config_hash()

    def test_provenance_names_the_blas_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert run(self._cfg(tmp_path, resolution=0.05), "kernel") == EXIT_OK
        report = json.loads((tmp_path / "kernel_report.json").read_text())
        assert report["provenance"]["blas_threads"] == 3

    def test_kernel_csv_matches_closed_form(self, tmp_path, disc_engine):
        cfg = self._cfg(tmp_path, resolution=0.05)
        run(cfg, "kernel")
        with open(tmp_path / "kernel.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows[:10]:
            z = np.array([[complex(float(row["re_z1"]),
                                   float(row["im_z1"]))]])
            w = np.array([[complex(float(row["re_w1"]),
                                   float(row["im_w1"]))]])
            val = complex(float(row["re_B"]), float(row["im_B"]))
            assert val == pytest.approx(disc_engine.kernel(z, w)[0],
                                        rel=1e-12)

    def test_reproducible_bytes(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for d in (a_dir, b_dir):
            cfg = ExperimentConfig(domain="disc", resolution=0.05, rays=2,
                                   steps=(0.3, 0.6), hankel_degrees=(2, 4),
                                   out_dir=str(d))
            bidisc = ExperimentConfig(domain="polydisc2", resolution=0.2,
                                      out_dir=str(d))
            for command in COMMANDS:
                assert run(bidisc if command == "variety" else cfg,
                           command) == EXIT_OK, command
        names = sorted(p.name for p in a_dir.iterdir())
        assert {f"{c.replace('-', '_')}_report.json" for c in COMMANDS} \
            <= set(names)
        assert names == sorted(p.name for p in b_dir.iterdir())
        for name in names:
            assert (a_dir / name).read_bytes() \
                == (b_dir / name).read_bytes(), name

    def test_omega_scan_decays_on_disc(self, tmp_path):
        cfg = self._cfg(tmp_path, rays=2,
                        steps=(0.3, 0.5, 0.7, 0.85, 0.92))
        assert run(cfg, "omega-scan") == EXIT_OK
        summary = json.loads((tmp_path / "omega_summary.json").read_text())
        assert summary["tail_trend"] < 0.2

    def test_bad_symbol_exit_code(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path, symbol="z1/z2", resolution=0.05)
        assert run(cfg, "omega-scan") == EXIT_SYMBOL
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("symbol error: division")

    def test_computation_failure_exit_code(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path, resolution=0.3, rays=2, steps=(0.3, 0.6))
        assert run(cfg, "omega-scan") == EXIT_COMPUTE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "computation failed: no admissible scan points\n"

    @pytest.mark.parametrize("resolution, message", [
        (1e200, "a geodesic graph needs at least 2 grid nodes, "
                "the grid has 1"),
        (1e-200, "tensor-midpoint resolution 1e-200 asks for 1.600e+801 "
                 "candidate nodes, above the cap of 8000000"),
        (0.0375, "tensor-midpoint resolution 0.0375 asks for 8.503e+6 "
                 "candidate nodes, above the cap of 8000000")],
        ids=["tensor-midpoint", "1e-200", "0.0375"])
    def test_huge_resolution_exit_code(self, tmp_path, capsys, resolution,
                                       message):
        """One grid node, or more candidates than the cap allows."""
        cfg = self._cfg(tmp_path, domain="polydisc2", resolution=resolution)
        assert run(cfg, "net") == EXIT_COMPUTE
        out, err = capsys.readouterr()
        assert out == "" and err == f"computation failed: {message}\n"

    def test_out_dir_that_is_a_file(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        cfg = self._cfg(tmp_path, out_dir=str(path), resolution=0.05)
        assert run(cfg, "kernel") == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: out_dir: ") and str(path) in err

    def test_undocumented_exception_exit_code(self, tmp_path, capsys):
        (tmp_path / "notes.json").write_text("{not json")
        assert run(self._cfg(tmp_path), "report") == EXIT_COMPUTE
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("computation failed: JSONDecodeError: ")

    def test_variety_unsupported_on_disc(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path, resolution=0.05)
        assert run(cfg, "variety") == EXIT_UNSUPPORTED
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("unsupported: boundary analytic discs are built in "
                       "only for polydiscs of dimension 2 or more\n")

    @pytest.mark.parametrize("command, expr", [
        ("hankel", "True"), ("hankel", "False"), ("hankel", "1e400"),
        ("hankel", "1e200*1e200*conj(z1)"), ("hankel", "-1e400+1e400"),
        ("hankel", str(10 ** 400)), ("hankel", "-" * 5000 + "z1"),
        # |phi|^2 overflows, though phi's own coefficients do not
        ("hankel", "1e200*conj(z1)"), ("omega-scan", "1e200*conj(z1)"),
        ("hankel", "1e308*conj(z1)*conj(z1)"),
        # a syntax error with no offset
        ("hankel", "z1\x00")],
        ids=["True", "False", "1e400", "product-overflow", "inf-minus-inf",
             "401-digit-int", "deep-nesting", "square-overflow",
             "square-overflow-omega-scan", "square-overflow-twice-conj",
             "null-byte"])
    def test_out_of_range_symbol_exit_code(self, tmp_path, capsys, command,
                                           expr):
        cfg = self._cfg(tmp_path, symbol=expr, resolution=0.05)
        assert run(cfg, command) == EXIT_SYMBOL
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("symbol error: ") and "None" not in err

    def test_csv_cells_are_plain_numbers(self, tmp_path):
        cfg = self._cfg(tmp_path, resolution=0.05, rays=2, steps=(0.3, 0.6),
                        hankel_degrees=(2, 4))
        written = (("kernel", "kernel.csv"), ("metric", "metric.csv"),
                   ("distance", "distance.csv"), ("net", "net.csv"),
                   ("hankel", "sigma.csv"), ("omega-scan", "omega_scan.csv"),
                   ("decompose", "epsilon.csv"))
        columns = _readme_csv_columns()  # as written on the disc
        assert sorted(columns) == sorted(name for _, name in written)
        for command, name in written:
            assert run(cfg, command) == EXIT_OK
            with open(tmp_path / name) as fh:
                reader = csv.DictReader(fh)
                rows = list(reader)
            assert reader.fieldnames == columns[name], name
            assert rows
            for row in rows:
                for key, cell in row.items():
                    if key != "mode":
                        float(cell)

    def test_decompose_brackets_null_with_no_admissible_audit(self,
                                                             tmp_path):
        # at resolution 0.3 no disc ball holds enough nodes for degree 6
        assert run(self._cfg(tmp_path, resolution=0.3),
                   "decompose") == EXIT_OK
        audit = json.loads((tmp_path / "decomposition.json").read_text())
        assert audit["phi2_bracket"] is None
        assert audit["dbar_bracket"] is None
        with open(tmp_path / "epsilon.csv") as fh:
            assert {row["admissible"] for row in csv.DictReader(fh)} \
                == {"0"}

    def test_hankel_builds_each_degree_once(self, tmp_path, monkeypatch):
        degrees = []
        def counting(symbol, basis, *args, **kwargs):
            degrees.append(basis.degree)
            return hankel_matrix(symbol, basis, *args, **kwargs)
        monkeypatch.setattr(harness, "hankel_matrix", counting)
        cfg = self._cfg(tmp_path)
        assert run(cfg, "hankel") == EXIT_OK
        assert len(degrees) == len(cfg.hankel_degrees)
        assert sorted(degrees) == sorted(cfg.hankel_degrees)

    def test_ball_hankel_past_int64_norms(self, tmp_path):
        # from total degree 23 on, the ball's monomial norms need a
        # factorial product beyond int64
        cfg = self._cfg(tmp_path, domain="ball2", resolution=0.2,
                        hankel_degrees=(24,))
        assert run(cfg, "hankel") == EXIT_OK
        with open(tmp_path / "sigma.csv") as fh:
            sigma = [float(row["sigma"]) for row in csv.DictReader(fh)]
        assert sigma and all(math.isfinite(s) for s in sigma)

    def test_variety_on_bidisc(self, tmp_path):
        cfg = self._cfg(tmp_path, domain="polydisc2", symbol="conj(z2)",
                        resolution=0.2)
        assert run(cfg, "variety") == EXIT_OK
        res = json.loads((tmp_path / "variety.json").read_text())
        assert res["residual"] == pytest.approx(1.0, abs=1e-3)

    def test_net_smoke(self, tmp_path):
        cfg = self._cfg(tmp_path, resolution=0.05)
        assert run(cfg, "net") == EXIT_OK
        report = json.loads((tmp_path / "net_report.json").read_text())
        assert report["summary"]["separation_min"] >= cfg.net_radius
        assert report["summary"]["covering_max"] == 1.0

    def test_sbg_check_smoke(self, tmp_path):
        cfg = self._cfg(tmp_path, resolution=0.05)
        assert run(cfg, "sbg-check") == EXIT_OK
        rep = json.loads((tmp_path / "sbg_check_report.json").read_text())
        assert rep["summary"]["C5"] == pytest.approx(2 * math.pi,
                                                     abs=1e-6)

    def test_report_gathers_artifacts(self, tmp_path):
        cfg = self._cfg(tmp_path, resolution=0.05)
        run(cfg, "kernel")
        listed = []
        for _ in range(2):  # a rerun lists the same files
            assert run(cfg, "report") == EXIT_OK
            rep = json.loads((tmp_path / "report_report.json").read_text())
            listed.append(rep["summary"]["artifacts"])
        assert listed[0] == listed[1] == ["kernel_report.json"]
        assert not (tmp_path / "report.json").exists()

    def test_json_is_strict(self, tmp_path):
        """Non-finite numbers are written as null, never as the NaN or
        Infinity tokens that strict JSON parsers reject."""
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")
        assert run(self._cfg(tmp_path, resolution=0.05),
                   "sbg-check") == EXIT_OK
        lone = self._cfg(tmp_path, resolution=0.05, net_radius=50.0)
        assert run(lone, "net") == EXIT_OK
        for name in ("sbg.json", "sbg_check_report.json",
                     "multiplicity.json", "net_report.json"):
            json.loads((tmp_path / name).read_text(), parse_constant=reject)
        rep = json.loads((tmp_path / "net_report.json").read_text())
        assert rep["summary"]["n_centers"] == 1
        assert rep["summary"]["separation_min"] is None
        assert harness._jsonable(
            {"a": np.array([[np.nan, 1.0]]), "b": complex(-np.inf, 2.0),
             "c": (np.float64(np.inf), np.int64(3))}) \
            == {"a": [[None, 1.0]], "b": [None, 2.0], "c": [None, 3]}


class TestCli:
    def test_help_like_invocation_and_exit_codes(self, tmp_path):
        out = tmp_path / "o"
        code = cli_main(["kernel", "--out", str(out),
                        "--resolution", "0.05"])
        assert code == EXIT_OK
        assert (out / "kernel.csv").exists()

    def test_t91_on_the_ball_grid_with_sphere_candidates(self, tmp_path):
        # the ball2 grid at 0.15 once kept nodes with |z|^2 = 1, where
        # the closed-form kernel is singular
        code = cli_main(["t91", "--out", str(tmp_path), "--domain", "ball2",
                         "--resolution", "0.15"])
        assert code == EXIT_OK
        assert (tmp_path / "t91_report.json").exists()

    def test_symbol_override(self, tmp_path):
        # a symbol that starts with "-" reaches the parser as --symbol=EXPR
        for symbol in (["--symbol", "z1/z1"], ["--symbol=-z1/z1"]):
            code = cli_main(["omega-scan", "--out", str(tmp_path / "s"),
                             "--resolution", "0.05", *symbol])
            assert code == EXIT_SYMBOL

    @pytest.mark.parametrize("argv", [
        ["kernel", "--resolution", "abc"], ["explode"],
        ["hankel", "--symbol", "-conj(z1)"], ["kernel", "--threads", "2"]],
        ids=["bad-float", "unknown-command", "symbol-starting-with-minus",
             "removed-threads-flag"])
    def test_bad_argument_is_one_config_error_line(self, tmp_path, capsys,
                                                   argv):
        assert cli_main(argv + ["--out", str(tmp_path / "o")]) \
            == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("config error: ")

    @pytest.mark.parametrize("flag,value,message", [
        ("--resolution", "-1", "config field resolution must be positive"),
    ], ids=["resolution"])
    def test_bad_override_is_config_error(self, tmp_path, capsys, flag,
                                          value, message):
        out = tmp_path / "o"
        assert cli_main(["kernel", "--out", str(out), flag, value]) \
            == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"
        assert not out.exists()

    def test_wrong_type_is_one_config_error_line(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rays": "4"}))
        assert cli_main(["kernel", "--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("config error: config field rays ")

    def test_config_loading(self, tmp_path):
        cfg = ExperimentConfig(domain="disc", resolution=0.05,
                               out_dir=str(tmp_path / "c"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(asdict(cfg)))
        assert cli_main(["kernel", "--config", str(path)]) == EXIT_OK


class TestReadme:
    """The README's command line, config keys and report keys are the
    ones the code has."""

    def test_synopsis_is_the_parser(self):
        text = _readme_text()
        synopsis = re.search(r"## Command line\s+```sh\n(.*?)```", text,
                             re.S).group(1)
        options = [o for action in build_parser()._actions
                   for o in action.option_strings if o not in ("-h", "--help")]
        assert re.findall(r"\[(--[\w-]+)", synopsis) == options
        commands = re.search(r"\nCommands: (.*?)\.\n", text, re.S).group(1)
        assert tuple(_backticked(commands)) == COMMANDS

    def test_config_keys_are_the_fields(self):
        keys = re.search(r"every field of `ExperimentConfig` is a\s+key "
                         r"\((.*?)\)\.", _readme_text(), re.S).group(1)
        assert _backticked(keys) == [f.name for f in fields(ExperimentConfig)]

    def test_report_keys_are_a_written_report(self, tmp_path):
        found = re.search(r"with the keys (.*?);\s+`provenance` holds (.*?)\.",
                          _readme_text(), re.S)
        cfg = ExperimentConfig(domain="disc", resolution=0.05,
                               out_dir=str(tmp_path))
        assert run(cfg, "kernel") == EXIT_OK
        report = json.loads((tmp_path / "kernel_report.json").read_text())
        # the report is written with sorted keys
        assert sorted(_backticked(found.group(1))) == list(report)
        assert sorted(_backticked(found.group(2))) \
            == list(report["provenance"])
