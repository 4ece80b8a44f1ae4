import argparse
from decimal import Decimal
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ckabounds import bounds, cli
from ckabounds.cli import main
import oracles


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "nu,value,name"
    rows = []
    for line in lines[1:]:
        nu, value, name = line.split(",")
        rows.append((float(nu), float(value), name))
    return rows


def one_line(err):
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


class TestCurvesCommand:
    def test_writes_expected_rows(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        code = main(["curves", "--nu-min", "0", "--nu-max", "0.01",
                     "--nu-step", "0.005", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 4 * 3
        assert f"wrote {len(rows)} rows to {out}\n" in capsys.readouterr().out
        for nu, value, _name in rows:
            if nu == 0.0:
                assert value == pytest.approx(1.0, abs=1e-8)

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "c.csv"
        args = ["curves", "--nu-max", "0.02", "--nu-step", "0.01", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_worker_count_does_not_change_file(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["curves", "--nu-max", "0.02", "--nu-step", "0.01"]
        assert main(base + ["--out", str(a), "--workers", "1"]) == 0
        assert main(base + ["--out", str(b), "--workers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_minimize_flag_changes_names(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["curves", "--nu-max", "0.01", "--nu-step", "0.01",
                     "--minimize", "--out", str(out)]) == 0
        names = {name for _, _, name in read_rows(out)}
        assert "intrinsic_min" in names and "dual_min" in names

    def test_grid_up_to_one_stops_before_it(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["curves", "--nu-min", "0", "--nu-max", "1", "--nu-step", "0.5",
                     "--out", str(out)]) == 0
        assert sorted({nu for nu, _, _ in read_rows(out)}) == [0.0, 0.5]

    def test_invalid_grid_exits_one(self, tmp_path, capsys):
        code = main(["curves", "--nu-min", "0.5", "--nu-max", "0.1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "invalid grid" in capsys.readouterr().err

    def test_sub_resolution_step_names_the_step(self, tmp_path, capsys):
        code = main(["curves", "--nu-min", "0", "--nu-max", "1e-300", "--nu-step", "1e-300",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = one_line(capsys.readouterr().err)
        assert "points collide after rounding to 12 decimals (nu_step 1e-300)" in err
        assert not (tmp_path / "x.csv").exists()

    def test_infinite_step_names_the_step(self, tmp_path, capsys):
        code = main(["curves", "--nu-step", "inf", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = one_line(capsys.readouterr().err)
        assert "finite nu_step > 0" in err and "empty noise grid" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_unwritable_path_exits_two(self):
        assert main(["curves", "--nu-max", "0.01", "--nu-step", "0.01",
                     "--out", "/nonexistent-dir/curves.csv"]) == 2

    def test_unwritable_path_fails_before_the_search(self, tmp_path, monkeypatch, capsys):
        searched = []
        monkeypatch.setattr(bounds, "compute_curves", lambda *args, **kw: searched.append(args))
        assert main(["curves", "--minimize", "--out", str(tmp_path / "missing" / "x.csv")]) == 2
        captured = capsys.readouterr()
        assert one_line(captured.err).startswith("I/O error: ") and captured.out == ""
        assert searched == []

    def test_unknown_flag_exits_one(self):
        assert main(["curves", "--bogus"]) == 1

    def test_default_grid_is_the_library_default(self):
        cfg = cli._resolve(cli._build_parser().parse_args(["curves"]))
        grid = bounds.noise_grid(cfg["nu_min"], cfg["nu_max"], cfg["nu_step"])
        assert [nu.hex() for nu in grid] == [nu.hex() for nu in bounds.default_grid()]

    def test_empty_out_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for argv in (["curves", "--nu-max", "0.01", "--nu-step", "0.01", "--out", ""],
                     ["attack", "--nu-min", "0.1", "--out", ""]):
            assert main(argv) == 1
            assert "--out" in one_line(capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    def test_nonpositive_workers_exit_one(self, tmp_path, capsys):
        for workers in ("0", "-3"):
            assert main(["curves", "--nu-max", "0.01", "--nu-step", "0.01",
                         "--workers", workers, "--out", str(tmp_path / "w.csv")]) == 1
            err = one_line(capsys.readouterr().err)
            assert err == f"workers must lie in 1..64, got {workers}\n"
        assert not (tmp_path / "w.csv").exists()


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "c.csv"
        cfg.write_text(f"nu_max = 0.01\nnu_step = 0.005\nout = {out}\n# comment\n")
        assert main(["curves", "--config", str(cfg)]) == 0
        assert len(read_rows(out)) == 4 * 3

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "c.csv"
        cfg.write_text("nu_max = 0.01\nnu_step = 0.005\n")
        assert main(["curves", "--config", str(cfg), "--nu-step", "0.01",
                     "--out", str(out)]) == 0
        assert len(read_rows(out)) == 4 * 2

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        assert main(["curves", "--config", str(cfg)]) == 1

    def test_missing_config_exits_two(self):
        assert main(["curves", "--config", "/nonexistent.cfg"]) == 2

    def test_bad_value_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nu_min = abc\n")
        assert main(["curves", "--config", str(cfg)]) == 1
        assert "'nu_min'" in one_line(capsys.readouterr().err)

    def test_boolean_words(self):
        for word in ("1", "true", "YES", "On"):
            assert cli._boolean(word) is True
        for word in ("0", "False", "no", "OFF"):
            assert cli._boolean(word) is False

    def test_misspelled_boolean_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("minimize = ture\n")
        assert main(["curves", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 1
        assert "invalid value for config key 'minimize'" in one_line(capsys.readouterr().err)
        assert not (tmp_path / "c.csv").exists()

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        # a UnicodeDecodeError used to escape _read_config as a traceback
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfe")
        assert main(["attack", "--config", str(cfg)]) == 1
        assert "not UTF-8" in one_line(capsys.readouterr().err)

    def test_config_over_the_size_cap_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"#" * cli.CONFIG_MAX_BYTES)
        assert cli._read_config(str(cfg)) == {}
        cfg.write_bytes(b"#" * (cli.CONFIG_MAX_BYTES + 1))
        assert main(["curves", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 1
        assert f"longer than {cli.CONFIG_MAX_BYTES} bytes" in one_line(capsys.readouterr().err)
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("command", ["curves", "attack"])
    def test_empty_out_exits_one(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nu_max = 0.01\nnu_step = 0.01\nout =\n")
        assert main([command, "--config", str(cfg)]) == 1
        assert "invalid value for config key 'out'" in one_line(capsys.readouterr().err)
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_format_is_an_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = csv\n")
        assert main(["curves", "--config", str(cfg)]) == 1
        assert "unknown config key 'format'" in one_line(capsys.readouterr().err)


def accepted_flags():
    """Flags of each subcommand's parser, not -h."""
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for a in p._actions
                   for opt in a.option_strings if opt not in ("-h", "--help")}
            for name, p in sub.choices.items()}


class TestCommandFlags:
    @pytest.mark.parametrize("argv", [["game", "--minimize"], ["verify", "--workers", "2"],
                                      ["partitions", "--seed", "1"]])
    def test_flag_of_another_command_exits_one(self, argv, capsys):
        assert main(argv) == 1
        assert "unrecognized arguments" in one_line(capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [["curves", "--work", "1"], ["attack", "--o", "f"]])
    def test_abbreviated_flag_exits_one(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert "unrecognized arguments" in one_line(capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    def test_readme_synopsis_matches_parsers(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        synopsis = readme.split("## Command line", 1)[1].split("```")[1]
        documented = {}
        for line in synopsis.strip().splitlines():
            if line.startswith("ckabounds "):
                name = line.split()[1]
                documented[name] = set()
            documented[name] |= set(re.findall(r"--[a-z-]+", line))
        expected = {name: flags | ({"--config"} if flags else set())
                    for name, flags in documented.items()}
        assert accepted_flags() == expected


class TestHelp:
    @pytest.mark.parametrize("argv", [["-h"], ["curves", "-h"]])
    def test_help_returns_zero(self, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: ckabounds")


class TestVerifyCommand:
    def test_default_seed_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "suite order" in out
        assert "FAIL" not in out
        for count in re.findall(r"instances=(\d+)", out):
            assert int(count) >= 100
        for err in re.findall(r"max_error=(\S+)", out):
            assert float(err) < 1e-9

    def test_corrupt_hook_fails(self, monkeypatch, capsys):
        def suite(seed):
            yield from ((seed, 0.0), (seed + 1, 1e-6), (seed + 2, 0.0))
        monkeypatch.setattr(cli, "_SUITES", (("corrupt", suite, 1e-9),))
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL (instance seed 12346)" in out

    def test_nan_error_fails(self, monkeypatch):
        def suite(seed):
            yield from ((seed, 0.0), (seed + 1, math.nan), (seed + 2, 1.0))
        monkeypatch.setattr(cli, "_SUITES", (("nan", suite, 1e-9),))
        out = io.StringIO()
        assert cli._cmd_verify({"seed": 7}, out) == 1
        assert "max_error=nan" in out.getvalue() and "FAIL (instance seed 8)" in out.getvalue()

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        assert main(["verify", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert one_line(captured.err) == "seed must be at least 0, got -1\n"
        assert captured.out == ""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -5\n")
        assert main(["verify", "--config", str(cfg)]) == 1
        assert one_line(capsys.readouterr().err) == "seed must be at least 0, got -5\n"


class TestGameCommand:
    def test_printed_diagnostics(self, capsys):
        assert main(["game"]) == 0
        out = capsys.readouterr().out
        assert "0.853553" in out
        assert "0.750000" in out
        m = re.search(r"nu_crit\s*=\s*([0-9.]+)", out)
        assert m and abs(float(m.group(1)) - 0.1189) < 5e-4


class TestAttackCommand:
    def test_prints_both_minimize_states(self, capsys):
        assert main(["attack", "--nu-min", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "minimize=off" in out and "minimize=on" in out
        assert "upper bounds" in out

    def test_exports_joint_csv(self, tmp_path):
        out = tmp_path / "attack.csv"
        assert main(["attack", "--nu-min", "0.1", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            header, probs = oracles.joint_table_from_csv(fh)
        assert header == ["a1", "a2", "a3", "e", "p"]
        assert probs.shape == (2, 2, 2, 9)
        assert probs[..., 0].sum() == pytest.approx(0.729, abs=1e-9)

    def test_rejects_nu_out_of_range(self, capsys):
        assert main(["attack", "--nu-min", "1.0"]) == 1

    def test_unwritable_out_fails_before_the_search(self, tmp_path, monkeypatch, capsys):
        searched = []
        monkeypatch.setattr(bounds, "compute_curves",
                            lambda *args, **kw: searched.append(args))
        assert main(["attack", "--nu-min", "0.5", "--out", str(tmp_path / "missing" / "a.csv")]) == 2
        captured = capsys.readouterr()
        assert one_line(captured.err).startswith("I/O error: ") and captured.out == ""
        assert searched == []

    def test_negative_zero_nu_is_printed_as_zero(self, capsys):
        assert main(["attack", "--nu-min", "-0.0"]) == 0
        assert capsys.readouterr().out.startswith("cc attack at nu=0\n")

    def test_values_are_the_curves_values(self, tmp_path, capsys):
        # `attack` prints 9 decimals of the values `curves` writes with 12 significant digits
        assert main(["attack", "--nu-min", "0.05"]) == 0
        out = capsys.readouterr().out
        printed = {}
        for state in ("off", "on"):
            suffix = "min" if state == "on" else "fixed"
            m = re.search(rf"intrinsic \(minimize={state}\) *= .* /\(N-1\) = (\S+)\n", out)
            printed[f"intrinsic_{suffix}"] = Decimal(m.group(1))
            m = re.search(rf"dual_sn +\(minimize={state}\) *= (\S+) bits\n", out)
            printed[f"dual_{suffix}"] = Decimal(m.group(1))
        written = {}
        for flags in ([], ["--minimize"]):
            csv = tmp_path / "c.csv"
            assert main(["curves", "--nu-min", "0.05", "--nu-max", "0.06", "--nu-step", "0.01",
                         "--out", str(csv)] + flags) == 0
            for line in csv.read_text().splitlines()[1:]:
                nu, value, name = line.split(",")
                if nu == "0.05" and name in printed:
                    written[name] = Decimal(value).quantize(Decimal("1e-9"))
        capsys.readouterr()
        assert written == printed


class TestRelayCommand:
    def test_smoke(self, capsys):
        assert main(["relay", "--seed", "5", "--key-len", "16"]) == 0
        out = capsys.readouterr().out
        assert "all parties agree: True" in out
        assert "messages = 2" in out

    def test_negative_seed_is_masked(self, capsys):
        assert main(["relay", "--seed", "-1"]) == 0
        assert "all parties agree: True" in capsys.readouterr().out

    def test_two_parties_exit_one(self, capsys):
        assert main(["relay", "--parties", "2"]) == 1
        assert one_line(capsys.readouterr().err) == "n_parties must lie in 3..1024, got 2\n"

    def test_zero_key_length_exits_one(self, capsys):
        assert main(["relay", "--key-len", "0"]) == 1
        assert one_line(capsys.readouterr().err) == "key_len must lie in 1..4096, got 0\n"

    def test_oversized_arguments_exit_one(self, capsys):
        assert main(["relay", "--parties", "1025"]) == 1
        assert one_line(capsys.readouterr().err) == "n_parties must lie in 3..1024, got 1025\n"
        assert main(["relay", "--key-len", "4097"]) == 1
        assert one_line(capsys.readouterr().err) == "key_len must lie in 1..4096, got 4097\n"


class TestPartitionsCommand:
    def test_three_parties(self, capsys):
        assert main(["partitions"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 4  # three partitions plus the summary line
        assert "3 nontrivial partitions" in out[-1]

    def test_two_parties_exit_one(self, capsys):
        assert main(["partitions", "--parties", "2"]) == 1
        assert one_line(capsys.readouterr().err) == "n_parties must lie in 3..10, got 2\n"

    def test_eleven_parties_exit_one(self, capsys):
        assert main(["partitions", "--parties", "11"]) == 1
        assert one_line(capsys.readouterr().err) == "n_parties must lie in 3..10, got 11\n"
