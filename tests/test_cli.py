import math
import re

import numpy as np
import pytest

from ckabounds import cli
from ckabounds.cli import main
from ckabounds.secrecy import distribution_from_csv


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
    def test_writes_expected_rows(self, tmp_path):
        out = tmp_path / "curves.csv"
        code = main(["curves", "--nu-min", "0", "--nu-max", "0.01",
                     "--nu-step", "0.005", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 4 * 3
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

    def test_invalid_grid_exits_one(self, tmp_path, capsys):
        code = main(["curves", "--nu-min", "0.5", "--nu-max", "0.1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "invalid grid" in capsys.readouterr().err

    def test_unwritable_path_exits_two(self):
        assert main(["curves", "--nu-max", "0.01", "--nu-step", "0.01",
                     "--out", "/nonexistent-dir/curves.csv"]) == 2

    def test_unknown_flag_exits_one(self):
        assert main(["curves", "--bogus"]) == 1

    def test_nonpositive_workers_exit_one(self, tmp_path, capsys):
        for workers in ("0", "-3"):
            assert main(["curves", "--nu-max", "0.01", "--nu-step", "0.01",
                         "--workers", workers, "--out", str(tmp_path / "w.csv")]) == 1
            assert "invalid workers" in one_line(capsys.readouterr().err)
        assert not (tmp_path / "w.csv").exists()


class TestValidators:
    """Checked without building a grid or starting a process pool."""

    def cfg(self, **overrides):
        return {**cli._DEFAULTS, **overrides}

    def test_grid_size_of_default_grid(self):
        assert cli._grid_size(self.cfg()) == 53

    def test_grid_size_counts_before_building(self):
        with pytest.raises(cli._CliError, match="more than") as exc:
            cli._grid_size(self.cfg(nu_min=0.0, nu_max=1.0, nu_step=1e-12))
        assert exc.value.code == 1
        with pytest.raises(cli._CliError, match="more than"):
            cli._grid_size(self.cfg(nu_step=5e-324))  # the span overflows to inf

    def test_grid_size_at_the_cap(self):
        step = 1.0 / cli.MAX_GRID_POINTS
        assert cli._grid_size(self.cfg(nu_max=1.0 - step, nu_step=step)) == cli.MAX_GRID_POINTS
        with pytest.raises(cli._CliError):
            cli._grid_size(self.cfg(nu_max=1.0, nu_step=step))

    def test_grid_size_rejects_nan_step(self):
        with pytest.raises(cli._CliError, match="invalid grid"):
            cli._grid_size(self.cfg(nu_step=math.nan))

    def test_workers_bounds(self):
        assert cli._check_workers(self.cfg(workers=1)) == 1
        assert cli._check_workers(self.cfg(workers=cli.MAX_WORKERS)) == cli.MAX_WORKERS
        for bad in (0, -3, cli.MAX_WORKERS + 1):
            with pytest.raises(cli._CliError, match="invalid workers"):
                cli._check_workers(self.cfg(workers=bad))


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

    def test_unsupported_format_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = json\n")
        assert main(["curves", "--config", str(cfg)]) == 1
        assert "format" in capsys.readouterr().err


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

    def test_corrupt_hook_fails(self, capsys):
        assert main(["verify", "--corrupt"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert re.search(r"FAIL \(instance seed \d+\)", out)


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
        with open(out) as fh:
            dist = distribution_from_csv(fh)
        assert dist.party_alphabets == (2, 2, 2)
        assert dist.eve_alphabet == 9
        assert dist.probs[..., 0].sum() == pytest.approx(0.729, abs=1e-9)

    def test_rejects_nu_out_of_range(self, capsys):
        assert main(["attack", "--nu-min", "1.0"]) == 1


class TestRelayCommand:
    def test_smoke(self, capsys):
        assert main(["relay", "--seed", "5", "--key-len", "16"]) == 0
        out = capsys.readouterr().out
        assert "all parties agree: True" in out
        assert "messages = 2" in out

    def test_two_parties_exit_one(self, capsys):
        assert main(["relay", "--parties", "2"]) == 1
        assert "three parties" in one_line(capsys.readouterr().err)

    def test_zero_key_length_exits_one(self, capsys):
        assert main(["relay", "--key-len", "0"]) == 1
        assert "key_len" in one_line(capsys.readouterr().err)


class TestPartitionsCommand:
    def test_three_parties(self, capsys):
        assert main(["partitions"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 4  # three partitions plus the summary line
        assert "3 nontrivial partitions" in out[-1]

    def test_two_parties_exit_one(self, capsys):
        assert main(["partitions", "--parties", "2"]) == 1
        assert "three parties" in one_line(capsys.readouterr().err)
