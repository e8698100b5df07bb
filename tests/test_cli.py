import csv
import io
import json
import math

import pytest

from casimir import checks, hyperdim
from casimir.cli import main
from test_hyperdim import mode_reference


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.fixture
def mode_sum_lams(monkeypatch):
    """The cutoff of every hyperdim._mode_sum call made during the test."""
    lams = []
    mode_sum = hyperdim._mode_sum

    def counted(cfg, lam, *args, **kwargs):
        lams.append(lam)
        return mode_sum(cfg, lam, *args, **kwargs)

    monkeypatch.setattr(hyperdim, "_mode_sum", counted)
    return lams


class TestSingleRuns:
    def test_internal_energy_example(self, capsys):
        code, out = run_cli(["internal-energy", "--a", "1", "--T", "1", "--n", "1"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["value"]) == pytest.approx(-4.3823924232078996e-05, rel=1e-10)
        assert rows[0]["converged"] == "true"

    def test_pressure_example(self, capsys):
        code, out = run_cli(["pressure", "--D", "4", "--n", "1", "--a", "1"], capsys)
        assert code == 0
        value = float(parse_csv(out)[0]["value"])
        assert value == pytest.approx(-0.0411234, abs=1e-7)

    def test_em_energy_T0(self, capsys):
        code, out = run_cli(["em-energy", "--a", "1", "--n", "1"], capsys)
        assert code == 0
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(
            -math.pi**2 / 720.0, rel=1e-8
        )

    @pytest.mark.parametrize("T", ["0", "1e-200", "1e-8", "0.5"])
    def test_em_energy_prints_internal_energy(self, capsys, T):
        # W = U at every T: em-energy prints the kernel's U, the closed
        # form below naT = 1e-6
        code, em = run_cli(["em-energy", "--T", T], capsys)
        assert code == 0
        assert em == run_cli(["internal-energy", "--T", T], capsys)[1]
        row = parse_csv(em)[0]
        if float(T) < 1e-6:
            assert row["method"] == "closed_form"
            assert abs(float(row["value"]) + math.pi**2 / 720.0) <= float(row["err_estimate"])

    def test_pressure_T0_limit_is_one_double(self, capsys):
        # T = 0 and T = 1e-200 both print the D = 4 closed form of matsubara.pressure
        zero, tiny = (parse_csv(run_cli(["pressure", "--T", T], capsys)[1])[0] for T in ("0", "1e-200"))
        assert (zero["value"], zero["method"]) == (tiny["value"], tiny["method"])

    def test_seventeen_digit_round_trip(self, capsys):
        _, out = run_cli(["internal-energy", "--T", "1"], capsys)
        text = parse_csv(out)[0]["value"]
        assert float(format(float(text), ".17g")) == float(text)


class TestDeterminismAndParity:
    def test_byte_identical_reruns(self, capsys):
        argv = ["free-energy", "--a", "1", "--T", "0.7", "--format", "csv"]
        _, first = run_cli(argv, capsys)
        _, second = run_cli(argv, capsys)
        assert first == second

    def test_csv_json_value_parity(self, capsys):
        base = ["internal-energy", "--a", "1", "--T", "0.5", "--sweep", "T:0.5:2:3:lin"]
        _, txt_csv = run_cli(base + ["--format", "csv"], capsys)
        _, txt_json = run_cli(base + ["--format", "json"], capsys)
        csv_rows = parse_csv(txt_csv)
        json_rows = json.loads(txt_json)
        assert len(csv_rows) == len(json_rows) == 3
        for c, j in zip(csv_rows, json_rows):
            for key in ("a", "T", "n", "value", "err_estimate"):
                assert float(c[key]) == pytest.approx(j[key], rel=0, abs=0)
            assert (c["converged"] == "true") == j["converged"]
            assert c["method"] == j["method"]

    def test_json_writes_nonfinite_as_null(self, capsys):
        # a = 1e-104 overflows F(T = 0) to -inf: flagged, exit 1, still valid JSON
        argv = ["free-energy", "--T", "0", "--a", "1e-104"]

        def reject(token):
            raise ValueError(f"invalid JSON token {token}")

        code, out = run_cli(argv + ["--format", "json"], capsys)
        assert code == 1
        row = json.loads(out, parse_constant=reject)[0]
        assert row["value"] is None and row["err_estimate"] is None
        assert row["converged"] is False
        code, out = run_cli(argv, capsys)
        assert code == 1
        row = parse_csv(out)[0]
        assert (row["value"], row["err_estimate"], row["converged"]) == ("-inf", "inf", "false")


class TestFlatParser:
    def test_flags_before_or_after_command(self, capsys):
        code, before = run_cli(["--format", "json", "free-energy", "--T", "0.5"], capsys)
        assert code == 0
        code, after = run_cli(["free-energy", "--T", "0.5", "--format", "json"], capsys)
        assert code == 0
        assert before == after

    def test_suite_ignored_outside_crosscheck(self, capsys):
        _, plain = run_cli(["pressure"], capsys)
        code, with_suite = run_cli(["pressure", "--suite", "all"], capsys)
        assert code == 0
        assert with_suite == plain


class TestSweeps:
    def test_linear_sweep_order(self, capsys):
        code, out = run_cli(["free-energy", "--sweep", "T:0.5:2:4:lin"], capsys)
        assert code == 0
        temps = [float(r["T"]) for r in parse_csv(out)]
        assert temps == [0.5, 1.0, 1.5, 2.0]

    def test_log_sweep(self, capsys):
        code, out = run_cli(["free-energy", "--sweep", "T:0.1:10:3:log"], capsys)
        assert code == 0
        temps = [float(r["T"]) for r in parse_csv(out)]
        assert temps[1] == pytest.approx(1.0, rel=1e-12)

    def test_sweep_count_must_be_at_least_two(self, capsys):
        code, _ = run_cli(["free-energy", "--sweep", "T:1:2:1:lin"], capsys)
        assert code == 2

    def test_unknown_sweep_parameter(self, capsys):
        code, _ = run_cli(["free-energy", "--sweep", "bogus:1:2:3:lin"], capsys)
        assert code == 2


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["internal-energy", "--bogus", "1"])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 2

    def test_nonconvergence_exits_one(self, capsys):
        code, out = run_cli(["internal-energy", "--T", "0.5", "--max-iter", "2"], capsys)
        assert code == 1
        assert parse_csv(out)[0]["converged"] == "false"

    @pytest.mark.parametrize(
        "argv",
        [
            ["free-energy", "--a", "1e-120"],  # ZeroDivisionError
            ["internal-energy", "--T", "1e300"],  # OverflowError
            ["pressure", "--T", "0", "--a", "1e-100"],  # ZeroDivisionError
            ["cutoff-sum", "--D", "95"],  # OverflowError: the mode sum passes 1.8e308
            ["cutoff-sum", "--D", "200"],  # OverflowError: the Eulerian numbers of A_199 do
            ["cutoff-sum", "--D", "150"],  # OverflowError: a power in the integrand does
            ["cutoff-sum", "--D", "400"],  # OverflowError: Gamma(d/2) does
        ],
    )
    def test_arithmetic_failure_exits_one(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        if argv[0] == "cutoff-sum":
            # one message, whichever operation overflowed first
            assert captured.err == (
                f"error: OverflowError: the regulated mode sum at D = {argv[2]}, "
                "lambda = 0.1 leaves the double range\n"
            )

    def test_iteration_budget_does_not_touch_circuit(self, capsys):
        # the eigenfrequency is a closed form, so no iteration budget applies
        code, plain = run_cli(["circuit"], capsys)
        assert code == 0
        code, capped = run_cli(["circuit", "--max-iter", "2"], capsys)
        assert code == 0
        assert capped == plain

    def test_finite_T_pressure_needs_D4(self, capsys):
        code, _ = run_cli(["pressure", "--T", "1", "--D", "5"], capsys)
        assert code == 2


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("a = 2.0\nT = 1.0  # comment\n")
        code, out = run_cli(["internal-energy", "--config", str(cfg)], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["a"]) == 2.0 and float(row["T"]) == 1.0

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("a=2.0\nT=1.0\n")
        _, out = run_cli(["internal-energy", "--config", str(cfg), "--a", "1"], capsys)
        assert float(parse_csv(out)[0]["a"]) == 1.0

    def test_env_var_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "env.conf"
        cfg.write_text("T=1.0\n")
        monkeypatch.setenv("CASIMIR_CONFIG", str(cfg))
        _, out = run_cli(["internal-energy"], capsys)
        assert float(parse_csv(out)[0]["T"]) == 1.0

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("banana=1\n")
        code, _ = run_cli(["internal-energy", "--config", str(cfg)], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("D=4.5\n", "1: D expects int, got '4.5'"),
            ("T=1\neps-bar = x\n", "2: eps_bar expects float, got 'x'"),
        ],
    )
    def test_bad_value_names_file_line_and_key(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code = main(["pressure", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {cfg}:{message}\n"
        assert captured.out == ""

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "table.csv"
        code = main(["pressure", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == "" and not out_path.exists()

    def test_output_file_lf_endings(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _ = run_cli(["pressure", "--out", str(out_path)], capsys)
        assert code == 0
        raw = out_path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")


class TestProfileCommand:
    def test_D4_anomaly_column_zero(self, capsys):
        code, out = run_cli(["profile", "--D", "4"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 99
        assert all(float(r["w2"]) == 0.0 for r in rows)
        assert not any(float(r["u"]) in (0.0, 1.0) for r in rows)

    def test_D6_symmetric_minimum_at_center(self, capsys):
        _, out = run_cli(["profile", "--D", "6"], capsys)
        rows = parse_csv(out)
        w2 = {float(r["u"]): float(r["w2"]) for r in rows}
        assert w2[0.25] == pytest.approx(w2[0.75], rel=1e-12)
        assert abs(w2[0.5]) == min(abs(v) for v in w2.values())
        assert all(float(r["regularized"]) == float(r["w1"]) for r in rows)

    def test_profile_needs_D_at_least_4(self, capsys):
        code, _ = run_cli(["profile", "--D", "3"], capsys)
        assert code == 2


class TestDispersiveAndCircuitCommands:
    def test_w_I_row(self, capsys):
        code, out = run_cli(["dispersive", "--eps-bar", "1", "--omega0", "10"], capsys)
        assert code == 0
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(
            -math.pi**2 / 720.0, rel=1e-7
        )

    def test_w2_scan_rows(self, capsys):
        code, out = run_cli(
            ["dispersive", "--eps-bar", "2", "--omega0", "0.2", "--omega-max", "2"], capsys
        )
        assert code == 0
        rows = parse_csv(out)
        assert [float(r["omega_max"]) for r in rows] == [2.0, 4.0, 8.0]
        mags = [abs(float(r["value"])) for r in rows]
        assert mags[0] < mags[1] < mags[2]

    def test_circuit_energy_row(self, capsys):
        code, out = run_cli(
            ["circuit", "--L", "1", "--C0", "1", "--eps-bar", "2", "--omega0", "10"], capsys
        )
        assert code == 0
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(2.0100501249992188, rel=1e-10)

    def test_cutoff_sum_one_mode_sum_per_row(self, capsys, mode_sum_lams):
        argv = ["cutoff-sum", "--cutoff-lambda", "0.8", "--sweep", "D:4:5:2:lin"]
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert len(parse_csv(out)) == 2
        assert mode_sum_lams == [0.8, 0.8]

    def test_cutoff_sum_D3(self, capsys):
        # the odd-D mode sum runs on E = q cosh s; on the E-map D = 3 exited 1
        code, out = run_cli(["cutoff-sum", "--D", "3"], capsys)
        assert code == 0
        (row,) = parse_csv(out)
        ref = mode_reference(3, 1.0, 1.0, 0.1)
        assert row["converged"] == "true"
        assert abs(float(row["value"]) - ref) <= float(row["err_estimate"])

    def test_cutoff_sum_vacuum_and_dispersive(self, capsys):
        code, out = run_cli(["cutoff-sum", "--cutoff-lambda", "0.5"], capsys)
        assert code == 0
        vac = float(parse_csv(out)[0]["value"])
        code, out = run_cli(
            ["cutoff-sum", "--cutoff-lambda", "0.5", "--eps-bar", "2", "--omega0", "1"],
            capsys,
        )
        assert code == 0
        disp = float(parse_csv(out)[0]["value"])
        assert disp > vac > 0.0


class TestCrosscheck:
    def test_all_suite_passes(self, capsys):
        # the CLI prints checks.crosscheck(), in both formats: one table, unique names
        rows = checks.crosscheck()
        assert rows and all(r["passed"] for r in rows)
        assert len({r["check"] for r in rows}) == len(rows)
        code, out = run_cli(["crosscheck", "--suite", "all"], capsys)
        assert code == 0
        printed = [{**r, "passed": r["passed"] == "true"} for r in parse_csv(out)]
        for r in printed:
            r.update((k, float(r[k])) for k in ("lhs", "rhs", "metric", "tol"))
        assert printed == rows
        _, out = run_cli(["crosscheck", "--format", "json"], capsys)
        assert json.loads(out) == rows
        with pytest.raises(SystemExit) as exc:
            main(["crosscheck", "--suite", "fast"])
        assert exc.value.code == 2

    def test_computes_only_the_mode_sums_it_reads(self, capsys, mode_sum_lams, monkeypatch):
        # mode_energy=per_mode_sum@D=4,5,8 read the summed and the per-mode
        # route at lambda = 0.5; cutoff_exponent~D reads lambda = 0.1 and 0.05;
        # dispersive_sum(omega0->inf)=vacuum/sqrt(eps) the dispersive sum,
        # which runs photon_index, and the vacuum sum at 2
        calls, index = [], hyperdim.photon_index
        monkeypatch.setattr(hyperdim, "photon_index", lambda m, k: calls.append(k) or index(m, k))
        per_mode, route = [], hyperdim._mode_energy_per_mode
        monkeypatch.setattr(
            hyperdim, "_mode_energy_per_mode",
            lambda cfg, lam, *args: per_mode.append((cfg.D, lam)) or route(cfg, lam, *args),
        )
        code, _ = run_cli(["crosscheck"], capsys)
        assert code == 0
        assert mode_sum_lams == [0.5, 0.5, 0.5, 0.1, 0.05, 2.0, 2.0]
        assert per_mode == [(4, 0.5), (5, 0.5), (8, 0.5)]
        assert calls
