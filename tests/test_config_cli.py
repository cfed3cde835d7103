import inspect
import json
import os
import platform
import subprocess
import sys
from typing import get_args, get_type_hints

import numpy as np
import pytest

from evoforge import _kernels, boolfn, cli
from evoforge.boolfn import (MonotoneConjunction, MonotoneDnf,
                             ParityFunction)
from evoforge.cli import (_fmt, experiment_kwargs, main, report_json_text,
                          summary_text, trace_csv_text)
from evoforge.config import parse_config
from evoforge.engine import EvolutionParams, default_params
from evoforge.errors import ConfigError, ParameterError
from evoforge.experiments import (COUNTEREXAMPLE_TARGET, REGISTRY,
                                  ExperimentReport, _trace_rows,
                                  golden_check, run_counterexample,
                                  run_parity)
from evoforge.funcspec import (parse_conjunction, parse_dnf, parse_function,
                               parse_parity)
from evoforge.perf import Aggregator, SampleSpec, empirical_perf
from evoforge.representations import evolve_conjunction


SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def conj(*vars_):
    return MonotoneConjunction(frozenset(vars_))


class TestFuncspec:
    def test_conjunction(self):
        assert parse_conjunction("x1&x4&x5") == conj(1, 4, 5)
        assert parse_conjunction(" x2 & x1 ") == conj(1, 2)
        assert parse_conjunction("true") == conj()
        assert parse_conjunction("x3&x3") == conj(3)

    def test_conjunction_rejects(self):
        for bad in ("", "x0", "y1", "x01", "x1&", "x1 x2"):
            with pytest.raises(ConfigError):
                parse_conjunction(bad)

    def test_dnf(self):
        d = parse_dnf("x1 | x2&x3")
        assert isinstance(d, MonotoneDnf)
        assert d.clauses == (conj(1), conj(2, 3))
        assert parse_dnf("x1&x2").k == 1

    def test_parity(self):
        assert parse_parity("parity(x1,x2)") == ParityFunction(
            frozenset({1, 2}))
        assert parse_parity(" parity( x3 , x1 ) ") == ParityFunction(
            frozenset({1, 3}))
        for bad in ("parity()", "parity", "parity(x0)", "parity(x1,)"):
            with pytest.raises(ConfigError):
                parse_parity(bad)

    def test_dispatch(self):
        assert isinstance(parse_function("parity(x1)"), ParityFunction)
        assert isinstance(parse_function("x1 | x2"), MonotoneDnf)
        assert isinstance(parse_function("x1&x2"), MonotoneConjunction)
        assert parse_function("true") == conj()

    @pytest.mark.parametrize("text", [
        "true",
        "x1&x4&x5",
        "x1&x4&x5 | x2&x4&x6 | x3&x7&x8",
        "parity(x1,x2,x3)",
    ])
    def test_round_trip(self, text):
        assert parse_function(text).canonical() == text


# Variable indices past x_VAR_MAX = x16777216, and how the refusal shows
# them: one past the bound, one whose mask would take 3.75 GB, and one
# too long for int() to read.
INDEX_PAST_BOUND = [("16777217", "16777217"),
                    ("30000000000", "one of 11 digits"),
                    ("1" * 5000, "one of 5000 digits")]


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config("experiment = counterexample\n")
        assert cfg.experiment == "counterexample"
        assert cfg.out is None
        assert cfg.options == {}

    def test_full(self):
        cfg = parse_config("""
# structural run
experiment = structural_vs_functional
n = 8
k = 3
target = x1&x4&x5 | x2&x4&x6 | x3&x7&x8   # the planted target
epsilon = 0.1
t = 0.0125
s = 1000
g = 50
q = 5
trials = 4
seed = 7
aggregator = matched_min
term_fitness = paired
out = results
""")
        assert cfg.options["n"] == 8
        assert cfg.options["k"] == 3
        assert isinstance(cfg.options["target"], MonotoneDnf)
        assert cfg.options["aggregator"] is Aggregator.MATCHED_MIN
        assert cfg.options["term_fitness"] == "paired"
        assert cfg.out == "results"

    @pytest.mark.parametrize("text,fragment", [
        ("experiment = parity\nbogus\n", "line 2"),
        ("experiment = parity\nbogus = 1\n",
         "line 2: key 'bogus' does not apply"),
        ("experiment = parity\nn = 5\nn = 6\n", "duplicate"),
        ("experiment = parity\nn =\n", "empty value"),
        ("experiment = parity\nn = five\n", "integer"),
        ("experiment = parity\nepsilon = hot\n", "number"),
        ("experiment = parity\nepsilon = 1.5\n", "line 2: epsilon"),
        ("experiment = parity\nt = 0\n", "t must be > 0"),
        ("experiment = parity\nn = 0\n", "n must be in 1..63"),
        ("experiment = parity\nn = 64\n", "line 2"),
        ("experiment = parity\ng = -1\n", "g must be >= 0"),
        ("experiment = parity\ns = 9223372036854775808\n", "line 2"),
        ("experiment = parity\nseed = -2\n", "64 bits"),
        ("experiment = structural_vs_functional\naggregator = best\n",
         "unknown aggregator"),
        ("experiment = structural_vs_functional\nterm_fitness = solo\n",
         "paired or best_any"),
        ("experiment = parity\nformats = json\n",
         "line 2: key 'formats' does not apply"),
        ("experiment = redundancy_bias\ntarget = x0&x1\n", "line 2"),
        ("experiment = redundancy_bias\nn = 8\ntarget = x9\n",
         "line 2: x9 uses x9 but n=8"),
        ("experiment = redundancy_bias\nk = 2\ntarget = x1 | x2 | x3\n",
         "3 clause"),
        ("n = 5\n", "missing required key"),
    ])
    def test_rejects(self, text, fragment):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert fragment in str(exc.value)

    # One bad value for each key whose range depends on no other option,
    # passed under the same name to a library entry that takes it: both
    # refuse it in the same words, from errors.check_range.  k is a config
    # key only and neigh_cap a library argument only.  q, target_size and
    # parity_size also have a range that depends on n or the target, which
    # their run_* checks, naming the other option.
    @pytest.mark.parametrize("library,key,value", [
        (default_params, "n", 64), (EvolutionParams, "n", 0),
        (default_params, "epsilon", 1.0), (default_params, "t", 0.0),
        (EvolutionParams, "s", 1 << 63), (SampleSpec, "s", 0),
        (EvolutionParams, "g", -1), (SampleSpec, "seed", 1 << 64),
        (run_parity, "trials", -1),
    ])
    def test_range_errors_match_the_library(self, library, key, value):
        with pytest.raises(ConfigError) as config:
            parse_config(f"experiment = parity\n{key} = {value}\n")
        valid = {default_params: dict(n=10, epsilon=0.1, neigh_cap=46),
                 EvolutionParams: dict(n=10, epsilon=0.1, t=0.0125, s=100,
                                       g=5, seed=0),
                 SampleSpec: dict(s=10, seed=0), run_parity: {}}[library]
        with pytest.raises(ParameterError) as lib:
            library(**{**valid, key: value})
        assert str(config.value) == f"line 2: {lib.value}"

    @pytest.mark.parametrize("index,got", INDEX_PAST_BOUND,
                             ids=["x2^24+1", "11_digits", "5000_digits"])
    def test_index_past_the_bound(self, tmp_path, capsys, index, got):
        path = write_cfg(tmp_path, "experiment = redundancy_bias\n"
                                   f"target = x1&x2 | x1&x{index}\n")
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: line 2: variable indices must be ints in "
            f"1..16777216, got {got}\n")

    def test_line_numbers_reported(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("experiment = parity\n\n# pad\nepsilon = 2.0\n")
        assert str(exc.value).startswith("line 4:")


class TestExperimentKwargs:
    def test_counterexample_accepts_nothing(self):
        cfg = parse_config("experiment = counterexample\n")
        assert experiment_kwargs(cfg) == {}
        with pytest.raises(ConfigError) as exc:
            parse_config("experiment = counterexample\nseed = 3\n")
        assert str(exc.value) == ("line 2: key 'seed' does not apply to "
                                  "experiment 'counterexample'")

    # The stock values each experiment runs with when its config sets
    # nothing; the run_* signatures declare them.
    DEFAULTS = {
        "counterexample": {
            "n": 8, "target": "x1&x4&x5 | x2&x4&x6 | x3&x7&x8"},
        "conjunction_evolvability": {
            "n": 10, "target_size": 3, "epsilon": 0.1, "seed": 0, "q": 10},
        "structural_vs_functional": {
            "n": 8, "target": "x1&x4&x5 | x2&x4&x6 | x3&x7&x8",
            "epsilon": 0.1, "seed": 0, "term_fitness": "best_any",
            "aggregator": "matched_min", "q": 8},
        "parity": {
            "n": 10, "parity_size": 4, "epsilon": 0.5, "seed": 0,
            "target": "parity(x1,x2,x3,x4)", "q": 10},
        "redundancy_bias": {
            "n": 8, "target": "x1&x2 | x1&x3", "epsilon": 0.1, "seed": 0,
            "q": 8},
    }

    @pytest.mark.parametrize("experiment", sorted(DEFAULTS))
    def test_effective_defaults(self, tmp_path, capsys, experiment):
        text = f"experiment = {experiment}\n"
        if experiment != "counterexample":
            text += "trials = 1\ns = 100\ng = 1\n"
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) in (0, 1)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        want = self.DEFAULTS[experiment]
        assert {key: report["params"][key] for key in want} == want

    def test_shared_parameters_have_one_type(self):
        # the README's config table gives each key one meaning, so a name
        # shared by several run_* functions has one type in all of them,
        # its annotation less the None of an optional parameter
        types = {}
        for fn in REGISTRY.values():
            for key, hint in get_type_hints(fn).items():
                args = get_args(hint)
                types.setdefault(key, set()).add(
                    args[0] if type(None) in args else hint)
        assert {key: kinds for key, kinds in types.items()
                if len(kinds) > 1} == {}

    def test_overrides_win(self):
        cfg = parse_config(
            "experiment = conjunction_evolvability\ntrials = 3\ns = 100\n")
        kwargs = experiment_kwargs(cfg)
        assert kwargs["trials"] == 3
        assert kwargs["s"] == 100

    def test_target_is_parsed(self):
        cfg = parse_config("experiment = structural_vs_functional\n"
                           "target = x1&x4&x5 | x2&x4&x6 | x3&x7&x8\n")
        assert experiment_kwargs(cfg)["target"] == COUNTEREXAMPLE_TARGET
        cfg = parse_config("experiment = structural_vs_functional\n"
                           "target = x1&x2\nk = 1\n")
        assert experiment_kwargs(cfg)["target"] == MonotoneDnf((conj(1, 2),))
        cfg = parse_config("experiment = structural_vs_functional\n")
        assert "target" not in experiment_kwargs(cfg)  # the run_* default

    def test_k_is_consumed_at_parse_time(self):
        cfg = parse_config(
            "experiment = structural_vs_functional\nk = 2\n"
            "target = x1&x2 | x3\n")
        assert "k" not in experiment_kwargs(cfg)

    @pytest.mark.parametrize("experiment, k, clauses", [
        ("structural_vs_functional", 5, 3),
        ("redundancy_bias", 7, 2),
    ])
    def test_k_is_checked_against_default_target(self, tmp_path, capsys,
                                                  experiment, k, clauses):
        text = (f"experiment = {experiment}\nk = {k}\n"
                "trials = 1\ns = 200\ng = 2\n")
        message = f"k = {k} but target has {clauses} clause(s)"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert str(exc.value) == f"line 2: {message}"
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("# pad\nexperiment = warp\n")
        assert str(exc.value) == (
            "line 2: unknown experiment 'warp'; choose from "
            "conjunction_evolvability, counterexample, parity, "
            "redundancy_bias, structural_vs_functional")

    EVOLUTION_KEYS = {"epsilon", "trials", "seed", "t", "s", "g", "q"}

    @pytest.mark.parametrize("experiment, keys", [
        ("counterexample", set()),
        ("conjunction_evolvability", EVOLUTION_KEYS | {"n", "target_size"}),
        ("structural_vs_functional",
         EVOLUTION_KEYS | {"n", "target", "k", "term_fitness", "aggregator"}),
        ("parity", EVOLUTION_KEYS | {"n", "parity_size"}),
        ("redundancy_bias", EVOLUTION_KEYS | {"n", "target", "k"}),
    ])
    def test_accepted_keys(self, experiment, keys):
        values = {"n": "8", "k": "2", "epsilon": "0.1",
                  "target": "x1&x2 | x1&x3", "target_size": "2",
                  "parity_size": "3", "aggregator": "max",
                  "term_fitness": "paired", "t": "0.01", "s": "10", "g": "1",
                  "q": "2", "trials": "1", "seed": "1"}
        params = {key for fn in REGISTRY.values()
                  for key in inspect.signature(fn).parameters}
        assert set(values) == params | {"k"}
        accepted = set()
        for key, value in values.items():
            try:
                experiment_kwargs(parse_config(f"experiment = {experiment}\n"
                                               f"{key} = {value}\n"))
            except ConfigError as exc:
                if "does not apply" in str(exc):
                    continue
            accepted.add(key)
        assert accepted == keys

    @pytest.mark.parametrize("experiment, target", [
        ("structural_vs_functional", "parity(x1,x2)"),
        ("redundancy_bias", "parity(x1,x2)"),
        ("redundancy_bias", "x1&x2"),
    ])
    def test_target_that_is_not_a_dnf_exits_2(self, tmp_path, capsys,
                                              experiment, target):
        path = tmp_path / "run.cfg"
        path.write_text(f"experiment = {experiment}\ntarget = {target}\n"
                        "trials = 1\ns = 100\ng = 1\n")
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        # the backend line comes first when run_* itself refuses the target
        *before, err = capsys.readouterr().err.splitlines()
        assert before in ([], [backend_line()])
        assert err.startswith("configuration error:")
        assert target in err
        assert not (tmp_path / "out").exists()

    def test_default_n_fits_configured_target(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("experiment = structural_vs_functional\n"
                        "target = x1&x2 | x9&x10\ntrials = 1\ns = 200\n"
                        "g = 2\n")
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["params"]["n"] == 10

    def test_lone_clause_target_exits_2(self, tmp_path, capsys):
        # a 1-clause matrix has max = min, so the max-above-min check of
        # structural_vs_functional could never pass
        path = tmp_path / "run.cfg"
        path.write_text("experiment = structural_vs_functional\n"
                        "target = x1&x2\ntrials = 1\ns = 200\ng = 2\n")
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert ">= 2 clauses" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def failing_report():
    return ExperimentReport(
        name="counterexample", params={}, trials=[], aggregates={},
        golden_checks=[golden_check("boom", 1.0, 0.0)], trace_rows=[])


class TestOutputText:
    def test_fmt_is_full_precision(self):
        assert _fmt(0.1) == "0.10000000000000001"
        assert _fmt(0.25) == "0.25"

    def test_report_json(self):
        text = report_json_text(run_counterexample())
        data = json.loads(text)
        assert data["name"] == "counterexample"
        assert data["all_golden_pass"] is True
        assert text.endswith("\n")

    def test_trace_csv_formatting(self):
        report = ExperimentReport(
            name="x", params={}, trials=[], aggregates={}, golden_checks=[],
            trace_rows=[(0, 0, "true", 0.1, None, 1, 2, "neutral"),
                        (0, 1, "x1&x2", -0.5, -0.5, 0, 3, "beneficial")])
        lines = trace_csv_text(report).splitlines()
        assert lines[0] == ("trial,generation,representation,emp_perf,"
                            "exact_perf,n_beneficial,n_neutral,chose")
        assert lines[1] == "0,0,true,0.10000000000000001,,1,2,neutral"
        assert lines[2] == "0,1,x1&x2,-0.5,-0.5,0,3,beneficial"

    def test_exact_column_empty_above_enumeration_limit(self, monkeypatch):
        # past the step cap this DNF target can only be enumerated, and it
        # mentions variables past the enumeration limit, so the trace
        # carries no exact column
        monkeypatch.setattr(boolfn, "IE_MAX_STEPS", 4)
        target = MonotoneDnf(MonotoneConjunction(frozenset(c))
                             for c in ({1}, {2}, {25}, {26}))
        params = EvolutionParams(n=26, epsilon=0.5, t=0.1, s=100, g=2, seed=0)
        trace = evolve_conjunction(target, params)
        assert trace.records
        assert all(rec.exact_perf is None for rec in trace.records)
        report = ExperimentReport(
            name="x", params={}, trials=[], aggregates={}, golden_checks=[],
            trace_rows=_trace_rows(0, trace))
        for line in trace_csv_text(report).splitlines()[1:]:
            assert line.split(",")[4] == ""

    def test_summary_pass(self):
        text = summary_text(run_counterexample())
        assert "experiment: counterexample" in text
        assert "PASS signed_global_perf" in text
        assert "result: all 9 golden checks passed" in text

    def test_summary_fail(self):
        text = summary_text(failing_report())
        assert "FAIL boom" in text
        assert "result: 1 of 1 golden checks FAILED" in text

    def test_summary_without_goldens(self):
        report = ExperimentReport(name="x", params={"n": 5},
                                  trials=[], aggregates={"rate": None},
                                  golden_checks=[], trace_rows=[])
        text = summary_text(report)
        assert "result: no golden checks defined" in text
        assert "rate = None" in text


CE_CONFIG = "experiment = counterexample\n"
CONJ_CONFIG = """experiment = conjunction_evolvability
n = 6
target_size = 2
epsilon = 0.2
trials = 2
seed = 9
s = 1000
g = 30
"""


def backend_line():
    if _kernels.FALLBACK is not None:
        return f"backend: numpy (fallback: {_kernels.FALLBACK})"
    return f"backend: c, loop: {_kernels.LOOP}"


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCmdRun:
    def test_counterexample_ok(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        for name in ("report.json", "trace.csv", "summary.txt"):
            assert (out / name).exists()
            assert name in captured.out
        assert "counterexample: ok" in captured.out

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CONJ_CONFIG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(a)]) == 0
        assert main(["run", "--config", cfg, "--out", str(b)]) == 0
        for name in ("report.json", "trace.csv", "summary.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        report = json.loads((a / "report.json").read_text())
        assert report["name"] == "conjunction_evolvability"
        assert report["params"]["trials"] == 2

    def test_trials_and_seed_overrides(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CONJ_CONFIG)
        out = tmp_path / "out"
        code = main(["run", "--config", cfg, "--out", str(out),
                     "--trials", "1", "--seed", "4"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["params"]["trials"] == 1
        assert report["params"]["seed"] == 4

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "experiment = parity\nepsilon = 1.5\n")
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "line 2" in err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_inapplicable_override_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CE_CONFIG)
        assert main(["run", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "does not apply" in capsys.readouterr().err

    def test_bad_seed_override_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CONJ_CONFIG)
        assert main(["run", "--config", cfg, "--seed", "-1"]) == 2
        assert "64 bits" in capsys.readouterr().err

    def test_golden_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(REGISTRY, "counterexample", failing_report)
        cfg = write_cfg(tmp_path, CE_CONFIG)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        captured = capsys.readouterr()
        assert "golden check failures: boom" in captured.err
        assert (tmp_path / "o" / "report.json").exists()

    def test_parity_above_enumeration_limit(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "experiment = parity\nn = 30\n"
                        "parity_size = 4\nepsilon = 0.5\ns = 1000\ng = 3\n"
                        "trials = 1\nseed = 0\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert rows
        assert all(row.split(",")[4] != "" for row in rows)

    def test_out_dir_precedence(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, CE_CONFIG + f"out = {tmp_path / 'cfgout'}\n")
        assert main(["run", "--config", cfg]) == 0
        assert (tmp_path / "cfgout" / "report.json").exists()

    def test_names_the_backend_on_stderr(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CE_CONFIG)
        out = str(tmp_path / "o")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        captured = capsys.readouterr()
        assert captured.err == backend_line() + "\n"
        # the compiled backend names its loop, the fallback its reason
        assert (captured.err in ("backend: c, loop: avx512\n",
                                 "backend: c, loop: portable\n")
                or captured.err.startswith("backend: numpy (fallback: "))
        assert "backend:" not in captured.out

    def test_says_why_it_fell_back(self, tmp_path):
        # a compiler that fails, and an empty cache: no library to load
        env = {**os.environ, "PYTHONPATH": SRC, "CC": "/bin/false",
               "XDG_CACHE_HOME": str(tmp_path / "cache")}
        cfg = write_cfg(tmp_path, CE_CONFIG)
        done = subprocess.run([sys.executable, "-m", "evoforge", "run",
                               "--config", cfg, "--out", str(tmp_path / "o")],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr.startswith("backend: numpy (fallback: ")
        assert done.stderr.endswith("false exited 1)\n")
        assert done.stdout.endswith("counterexample: ok\n")


class TestCmdPerf:
    CE = ["--r", "x1 | x2 | x3", "--f", "x1&x4&x5 | x2&x4&x6 | x3&x7&x8",
          "--n", "8"]

    def test_exact_signed(self, capsys):
        assert main(["perf"] + self.CE) == 0
        out = capsys.readouterr().out
        assert "exact perf (signed, n=8) = -0.1171875 [-15/128]" in out

    def test_exact_binary(self, capsys):
        assert main(["perf"] + self.CE + ["--conv", "binary"]) == 0
        out = capsys.readouterr().out
        assert "exact perf (binary, n=8) = 0.31640625 [81/256]" in out

    def test_exact_at_any_n(self, capsys):
        for n in ("40", "1000000000000"):
            assert main(["perf"] + self.CE[:-1] + [n]) == 0
            out = capsys.readouterr().out
            assert f"exact perf (signed, n={n}) = -0.1171875 [-15/128]" in out

    def test_exact_cost_does_not_grow_with_n(self, capsys):
        # the counts are taken on the cube of the highest variable used,
        # so n = 10^12 costs what n = 3 costs
        query = ["perf", "--r", "x1&x2", "--f", "x2 | x3", "--n"]
        assert main(query + ["3"]) == 0
        small = capsys.readouterr().out
        assert main(query + ["1000000000000"]) == 0
        huge = capsys.readouterr().out
        assert small.split(" = ")[1] == huge.split(" = ")[1]

    def test_sampled(self, capsys):
        assert main(["perf"] + self.CE + ["--samples", "1000",
                                          "--seed", "5"]) == 0
        out = capsys.readouterr().out
        expected = empirical_perf(
            parse_function("x1 | x2 | x3"),
            parse_function("x1&x4&x5 | x2&x4&x6 | x3&x7&x8"),
            8, SampleSpec(1000, 5))
        assert f"sampled perf (signed, s=1000, seed=5) = {_fmt(expected)}" \
            in out

    def test_parse_error_exits_2(self, capsys):
        assert main(["perf", "--r", "x0", "--f", "x1", "--n", "4"]) == 2
        assert "error:" in capsys.readouterr().err

    # an index past x_VAR_MAX is refused in one line, before its mask is
    # built or, past 8 digits, before int() reads it
    @pytest.mark.parametrize("index,got", INDEX_PAST_BOUND,
                             ids=["x2^24+1", "11_digits", "5000_digits"])
    def test_index_past_the_bound_exits_2(self, capsys, index, got):
        assert main(["perf", "--r", f"x{index}", "--f", "x1",
                     "--n", "5"]) == 2
        assert capsys.readouterr().err == (
            f"error: variable indices must be ints in 1..16777216, got {got}\n")

    def test_index_below_the_bound_runs(self, capsys):
        assert main(["perf", "--r", "x1000000", "--f", "x1",
                     "--n", "1000000"]) == 0
        assert "= 0 [0]" in capsys.readouterr().out

    def test_bad_n_exits_2(self, capsys):
        # the library's own refusals: the oracle's n has no upper bound,
        # the sampler's is 63
        assert main(["perf", "--r", "x1", "--f", "x1", "--n", "0"]) == 2
        assert capsys.readouterr().err == "error: n must be >= 1, got 0\n"
        assert main(["perf", "--r", "x1", "--f", "x1", "--n", "0",
                     "--samples", "10"]) == 2
        assert capsys.readouterr().err == (
            "error: n must be in 1..63, got 0\n")

    def test_bad_seed_exits_2(self, capsys):
        assert main(["perf", "--r", "x1", "--f", "x1", "--n", "4",
                     "--samples", "10", "--seed", "-1"]) == 2
        assert "64 bits" in capsys.readouterr().err
        # exact mode draws nothing, but still rejects the seed
        assert main(["perf", "--r", "x1", "--f", "x1", "--n", "4",
                     "--seed", "-1"]) == 2
        assert "64 bits" in capsys.readouterr().err

    def test_exact_and_samples_conflict(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["perf", "--r", "x1", "--f", "x1", "--n", "4",
                  "--exact", "--samples", "10"])
        assert exc.value.code == 2


class TestCmdList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        names = [line.split(":", 1)[0] for line in lines]
        assert names == sorted(REGISTRY)
        assert all(line.split(": ", 1)[1] for line in lines)


class TestCmdInfo:
    def test_reports_backend_build_and_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("EVOFORGE_THREADS", "2")
        assert main(["info"]) == 0
        rows = dict(line.split(": ", 1) for line in
                    capsys.readouterr().out.strip().splitlines())
        assert rows["backend"] == _kernels.BACKEND
        assert rows["loop"] == _kernels.LOOP
        if _kernels.BACKEND == "c":
            assert os.path.isfile(rows["library"])
            assert os.path.isfile(rows["compiler"])
        else:
            assert rows["library"] == "none"
        assert rows["python"] == platform.python_version()
        assert rows["numpy"] == np.__version__
        assert rows["cpus"] == str(os.cpu_count())
        assert rows["EVOFORGE_THREADS"] == "2"
        assert rows["fallback"] == (_kernels.FALLBACK or "none")
        # read-only: no option to set anything
        with pytest.raises(SystemExit):
            main(["info", "--backend", "numpy"])

    def test_reports_why_it_fell_back(self, tmp_path):
        # a compiler that fails, and an empty cache: no library to load
        env = {**os.environ, "PYTHONPATH": SRC, "CC": "/bin/false",
               "XDG_CACHE_HOME": str(tmp_path)}
        done = subprocess.run([sys.executable, "-m", "evoforge", "info"],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        rows = dict(line.split(": ", 1) for line in done.stdout.splitlines())
        assert rows["backend"] == "numpy"
        assert rows["loop"] == "none"
        assert rows["fallback"].endswith("false exited 1")


class TestMainCalledAgain:
    """main(argv) in a loop, as scripts/run_all.py and the benchmark call
    it: one parser for the process, and the handler of each call looked
    up when it runs."""
    QUERY = ["perf", "--r", "x1 | x2", "--f", "x1&x3", "--n", "6",
             "--samples", "1000", "--seed", "3"]

    def test_parser_built_once(self, capsys):
        cli.build_parser.cache_clear()
        assert main(["list"]) == 0
        assert main(self.QUERY) == 0
        assert cli.build_parser.cache_info().misses == 1

    def test_usage_error_leaves_no_state(self, capsys):
        cli.build_parser.cache_clear()
        assert main(self.QUERY) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["perf", "--r", "x1", "--f", "x1", "--n", "4",
                  "--exact", "--samples", "10"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(self.QUERY) == 0
        assert capsys.readouterr().out == first

    def test_handler_replaced_after_a_first_call_runs(self, capsys,
                                                       monkeypatch):
        assert main(self.QUERY) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_perf",
                            lambda args: seen.append(args.n) or 7)
        assert main(self.QUERY) == 7
        assert seen == [6]


class TestModuleEntry:
    def test_python_dash_m(self):
        # the child finds the package under src/, installed or not
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run([sys.executable, "-m", "evoforge", "list"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "counterexample" in proc.stdout
