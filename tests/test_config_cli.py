"""Config round-trip, CLI surface, sweeps, verify exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from ringbench import bench
from ringbench.bench import (cmd_scaling_trace, cmd_sweep_callback,
                             cmd_sweep_qd, consumer_rate_oracle,
                             run_experiment)
from ringbench.cli import main
from ringbench.config import (ARCHITECTURES, OP_KINDS, ConfigInvalid,
                              ExperimentConfig, defaults, from_dict, load,
                              parse, serialize, to_dict)
from ringbench.device import steady_state_iops
from ringbench.verify import (callback_collapse_violations,
                              dynamic_pool_violations, littles_law_violations)

MS = 1_000_000
CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs")
                 .glob("*.json"))


def config_data(**overrides) -> dict:
    """The small config as a document, with dotted-key overrides applied
    and not validated."""
    data = to_dict(defaults())
    data["workload"]["op_count"] = 3000
    data["architecture"]["kind"] = "shared_nothing"
    data["architecture"]["n_workers"] = 1
    data["device"]["jitter_frac"] = 0.0
    for key, value in overrides.items():
        node = data
        *parents, leaf = key.split(".")
        for p in parents:
            node = node[p]
        node[leaf] = value
    return data


def small_config(**overrides) -> ExperimentConfig:
    return from_dict(config_data(**overrides))


ARRIVALS = {"workload.kind": "arrivals", "architecture.kind": "dynamic_pool",
            "workload.phases": [[MS, 5000]]}
COST_FIELDS = ("submit_cost_ns", "reap_cost_ns", "poll_cost_ns",
               "resume_cost_ns", "lock_hold_ns", "inbox_push_cost_ns")


def zero_costs(data: dict) -> dict:
    # measurement-loop costs zeroed: Little's-law checks measure the device,
    # not the harness
    data["architecture"]["costs"] = {
        "submit_cost_ns": 0, "reap_cost_ns": 0, "poll_cost_ns": 0,
        "resume_cost_ns": 0, "lock_hold_ns": 0, "inbox_push_cost_ns": 0}
    return data


class TestConfig:
    def test_round_trip_identity(self):
        cfg = defaults()
        assert parse(serialize(cfg)) == cfg

    def test_round_trip_with_phases(self):
        cfg = small_config(**{"workload.kind": "arrivals",
                              "workload.phases": [[50 * MS, 5000],
                                                  [50 * MS, 100000]],
                              "architecture.kind": "dynamic_pool"})
        assert parse(serialize(cfg)) == cfg

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_is_a_canonical_dump(self, path):
        assert serialize(load(path)) == path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("overrides", [
        *({"architecture.kind": kind} for kind in ARCHITECTURES),
        {**ARRIVALS, "workload.phases": [[MS, 200_000], [MS, 20_000]]}],
        ids=[*ARCHITECTURES, "arrivals-dynamic_pool"])
    def test_op_kind_reaches_no_output(self, overrides):
        # every request reads one device block, whatever op_kind names
        rows = {tuple(run_experiment(small_config(**{
            **overrides, "workload.op_count": 1000,
            "device.jitter_frac": 0.1, "workload.op_kind": op_kind}))
            .to_row()) for op_kind in OP_KINDS}
        assert len(rows) == 1

    def test_unknown_field_has_path(self):
        with pytest.raises(ConfigInvalid) as exc:
            from_dict({"device": {"warp_speed": 9}})
        assert "device.warp_speed" in str(exc.value)

    def test_invalid_values_have_paths(self):
        dynamic_4 = {"architecture.kind": "dynamic_pool",
                     "architecture.k_instances": 4}
        for key, value, context in (
                ("architecture.kind", "ring0", {}),
                ("workload.op_kind", "?", {}),
                ("architecture.ring.sq_capacity", 100, {}),
                ("workload.queue_depth", 0, {}),
                # inputs that would crash a run if accepted
                *((f"architecture.costs.{name}", -1, {})
                  for name in COST_FIELDS),
                ("device.submission_cpu_cost_ns", -1, {}),
                ("architecture.controller.min_active", 9, dynamic_4),
                ("architecture.ring.idle_timeout_ns", 0, {}),
                ("architecture.ring.idle_timeout_ns", -5, {}),
                ("workload.phases", [[MS, 3e9]], ARRIVALS),
                # a leaf takes its field's type
                ("architecture.n_workers", "4", {}),
                ("architecture.n_workers", True, {}),
                ("workload.op_count", 10.5, {}),
                ("device.jitter_frac", "0.1", {}),
                ("architecture.ring.sq_poll", 1, {}),
                ("workload.phases", {}, ARRIVALS),
                ("workload.phases", [[MS, "5000"]], ARRIVALS),
                ("workload.phases", [[MS, True]], ARRIVALS),
                ("workload.phases", [[MS]], ARRIVALS)):
            with pytest.raises(ConfigInvalid) as exc:
                small_config(**{**context, key: value})
            assert key in str(exc.value), (key, value)

    def test_cq_smaller_than_sq_rejected(self):
        with pytest.raises(ConfigInvalid) as exc:
            small_config(**{"architecture.ring.cq_capacity": 128,
                            "architecture.ring.sq_capacity": 256})
        assert "cq_capacity" in str(exc.value)

    def test_native_requires_path(self):
        with pytest.raises(ConfigInvalid) as exc:
            small_config(backend="native")
        assert "native.path" in str(exc.value)


class TestSweepQd:
    def test_prediction_column_and_monotonicity(self, tmp_path):
        cfg = from_dict(zero_costs(to_dict(small_config())))
        path = cmd_sweep_qd(cfg, [1, 4, 16, 64], tmp_path)
        import csv
        rows = list(csv.DictReader(open(path)))
        assert [int(r["qd"]) for r in rows] == [1, 4, 16, 64]
        dev = cfg.device
        for r in rows:
            assert float(r["little_law_iops"]) == steady_state_iops(
                dev, int(r["qd"]))
        iops = {int(r["qd"]): float(r["iops"]) for r in rows}
        assert littles_law_violations(dev, iops, 0.01) == []

    def test_preconditioning_run_excluded(self, tmp_path):
        cfg = small_config()
        data = to_dict(cfg)
        data["runs"] = 3
        cfg = from_dict(data)
        path = cmd_sweep_qd(cfg, [4], tmp_path)
        import csv
        rows = list(csv.DictReader(open(path)))
        assert [int(r["run"]) for r in rows] == [1, 2, 3]  # run 0 discarded

    def test_rejects_bad_qd(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            cmd_sweep_qd(small_config(), [0], tmp_path)


@pytest.mark.parametrize("sweep", ("sweep-qd", "sweep-callback"))
def test_sim_sweeps_run_only_the_measured_runs(monkeypatch, tmp_path, sweep):
    # every simulated run is built afresh from its own seed, so a warm-up
    # run would condition nothing: each point runs exactly ``runs`` times
    run_ids = []
    run_experiment = bench.run_experiment

    def counted(cfg, **kw):
        run_ids.append(kw["run_id"])
        return run_experiment(cfg, **kw)

    monkeypatch.setattr(bench, "run_experiment", counted)
    cfg = small_config(**{"runs": 2, "workload.op_count": 200,
                          "architecture.kind": "static_pool"})
    if sweep == "sweep-qd":
        cmd_sweep_qd(cfg, [1, 4], tmp_path)
        points = ["qd1", "qd4"]
    else:
        cmd_sweep_callback(cfg, [0, 1000], tmp_path)
        points = [f"{mode}-c{cost}" for mode in ("inline_callbacks",
                                                 "io_threads")
                  for cost in (0, 1000)]
    assert run_ids == [f"{p}-run{run}" for p in points for run in (1, 2)]


@pytest.mark.parametrize("sweep,values", [("sweep-qd", [4, 0]),
                                          ("sweep-callback", [0, -1]),
                                          ("sweep-qd", []),
                                          ("sweep-callback", [])])
def test_sweep_list_checked_before_the_first_run(monkeypatch, tmp_path,
                                                 sweep, values):
    runs = []
    monkeypatch.setattr(bench, "run_experiment",
                        lambda cfg, **kw: runs.append(kw["run_id"]))
    cfg = small_config(**{"architecture.kind": "static_pool"})
    command = cmd_sweep_qd if sweep == "sweep-qd" else cmd_sweep_callback
    with pytest.raises(ConfigInvalid):
        command(cfg, values, tmp_path)
    assert runs == []


class TestSweepCallback:
    def test_modes_and_oracle_column(self, tmp_path):
        cfg = small_config(**{"architecture.kind": "static_pool",
                              "architecture.n_workers": 8,
                              "architecture.k_instances": 1,
                              "workload.queue_depth": 16,
                              "workload.op_count": 3000})
        path = cmd_sweep_callback(cfg, [0, 100_000], tmp_path)
        import csv
        rows = list(csv.DictReader(open(path)))
        modes = {r["exec_mode"] for r in rows}
        assert modes == {"inline_callbacks", "io_threads"}
        by = {(r["exec_mode"], int(r["callback_cost_ns"])): float(r["iops"])
              for r in rows}
        # zero cost: both modes equal within 5%
        assert by[("inline_callbacks", 0)] == pytest.approx(
            by[("io_threads", 0)], rel=0.05)
        # large cost collapses inline mode toward the oracle column
        dev = cfg.device
        costs = cfg.architecture.costs
        for r in rows:
            assert float(r["oracle_iops"]) == consumer_rate_oracle(
                dev, costs, 16, 1, int(r["callback_cost_ns"]))
        assert callback_collapse_violations(
            dev, costs, 16, 1,
            {100_000: by[("inline_callbacks", 100_000)]}, {}) == []

    def test_requires_pool_architecture(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            cmd_sweep_callback(small_config(), [0], tmp_path)


class TestScalingTrace:
    def trace_config(self):
        return small_config(**{
            "architecture.kind": "dynamic_pool",
            "architecture.k_instances": 4,
            "architecture.ring.sq_capacity": 16,
            "architecture.ring.cq_capacity": 32,
            "architecture.controller.window_ns": 5 * MS,
            "device.submission_cpu_cost_ns": 20_000,
            "workload.kind": "arrivals",
            "workload.phases": [[50 * MS, 5000], [50 * MS, 100_000],
                                [50 * MS, 5000], [50 * MS, 100_000]]})

    def test_square_wave_outputs(self, tmp_path):
        cfg = self.trace_config()
        summary, timeline, dyn, stat = cmd_scaling_trace(cfg, tmp_path)
        assert dynamic_pool_violations(dyn, stat, cfg.workload.phases,
                                       5 * MS) == []
        lines = open(timeline).read().splitlines()
        assert lines[0] == "time_ns,active_count"
        assert len(lines) > 2

    def test_requires_dynamic_pool(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            cmd_scaling_trace(small_config(), tmp_path)

    def test_phase_counts_sum_to_the_completions(self, tmp_path):
        # the last phase ends at its peak rate, so completions land after
        # the schedule ends: they count in the last phase
        cfg = small_config(**{**ARRIVALS, "workload.phases": [
            [5 * MS, 20_000], [5 * MS, 100_000]]})
        summary, _, dyn, stat = cmd_scaling_trace(cfg, tmp_path)
        rows = [line.split(",") for line in
                open(summary).read().splitlines()[1:]]
        for name, rep in (("dynamic", dyn), ("static", stat)):
            assert max(rep.completion_times) > 10 * MS, name
            assert sum(int(row[3]) for row in rows if row[0] == name) \
                == rep.completed_ok == len(rep.completion_times), name

    def test_whole_float_duration_runs_as_its_int(self, tmp_path, capsys):
        # JSON's 5e6 parses as a float; it runs exactly as 5_000_000
        outputs = []
        for dur in (5 * MS, 5e6):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(config_data(**{
                **ARRIVALS, "workload.phases": [[dur, 20_000], [dur, 5000]]})))
            out = tmp_path / repr(dur)
            assert main(["scaling-trace", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in
                            ("scaling_trace.csv", "scaling_timeline.csv")])
        assert outputs[0] == outputs[1]

    def test_constant_full_load_flat_timeline(self, tmp_path):
        cfg = self.trace_config()
        data = to_dict(cfg)
        data["workload"]["phases"] = [[100 * MS, 100_000]]
        summary, timeline, dyn, stat = cmd_scaling_trace(from_dict(data),
                                                         tmp_path)
        counts = [n for _, n in dyn.active_instance_timeline]
        # ramps up and then never scales down under saturating load
        assert counts[-1] == max(counts)
        peak_at = counts.index(max(counts))
        assert all(n == counts[-1] for n in counts[peak_at:])


class TestCli:
    def test_dump_defaults_round_trips(self, capsys):
        assert main(["--dump-defaults"]) == 0
        out = capsys.readouterr().out
        assert parse(out) == defaults()

    def test_no_command_is_config_error(self, capsys):
        assert main([]) == 2

    def test_sweep_qd_end_to_end(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(serialize(small_config()))
        rc = main(["sweep-qd", "--config", str(cfg_path), "--qd-list", "1,4",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "sweep_qd.csv").exists()

    def test_seed_override_changes_output(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        base = small_config()
        data = to_dict(base)
        data["device"]["jitter_frac"] = 0.2
        cfg_path.write_text(json.dumps(data))
        a, b, c = (tmp_path / x for x in ("a", "b", "c"))
        for out, seed in ((a, "1"), (b, "1"), (c, "2")):
            out.mkdir()
            rc = main(["sweep-qd", "--config", str(cfg_path), "--seed", seed,
                       "--qd-list", "4", "--out", str(out)])
            assert rc == 0
        assert (a / "sweep_qd.csv").read_bytes() == \
            (b / "sweep_qd.csv").read_bytes()
        assert (a / "sweep_qd.csv").read_bytes() != \
            (c / "sweep_qd.csv").read_bytes()

    def test_bad_config_file_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"architecture": {"kind": "nope"}}')
        rc = main(["sweep-qd", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("field,value", [
        ("dispatch_policy", "leastloaded"),
        ("instance_threading", "pair")])
    def test_unknown_pool_knob_is_exit_2(self, tmp_path, capsys, field,
                                         value):
        cfg_path = tmp_path / "cfg.json"
        data = to_dict(small_config(**{"architecture.kind": "static_pool"}))
        data["architecture"][field] = value
        cfg_path.write_text(json.dumps(data))
        rc = main(["sweep-qd", "--config", str(cfg_path), "--qd-list", "4",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert f"architecture.{field}" in capsys.readouterr().err
        assert not (tmp_path / "sweep_qd.csv").exists()

    @pytest.mark.parametrize("command,overrides,message", [
        ("sweep-qd", {"architecture.costs.submit_cost_ns": -1},
         "architecture.costs.submit_cost_ns"),
        ("sweep-qd", {"architecture.ring.idle_timeout_ns": -5},
         "architecture.ring.idle_timeout_ns"),
        ("sweep-qd", {"device.poll.idle_timeout_ns": MS},
         "device.poll.idle_timeout_ns: unknown field"),
        ("scaling-trace", {**ARRIVALS, "workload.phases": [[1000, 3e9]]},
         "workload.phases[0]"),
        ("sweep-qd", {"architecture.n_workers": "4"},
         "architecture.n_workers: must be int, got str"),
        ("sweep-qd --qd-list ,", {}, "qd_list"),
        ("sweep-callback --cost-list ,",
         {"architecture.kind": "static_pool"}, "cost_list"),
        ("sweep-qd", {"workload.block_size": 4096},
         "workload.block_size: unknown field"),
        ("scaling-trace", {**ARRIVALS, "workload.phases": [[MS + 0.5, 5000]]},
         "workload.phases[0]: duration must be a whole number of ns"),
    ], ids=["negative-cost", "ring-timeout", "deleted-poll-timeout",
            "rate-above-1e9", "string-for-int", "empty-qd-list",
            "empty-cost-list", "deleted-block-size", "fractional-duration"])
    def test_input_rejected_before_running_is_exit_2(self, tmp_path,
                                                     capsys, command,
                                                     overrides, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_data(**overrides)))
        rc = main([*command.split(), "--config", str(cfg_path), "--out",
                   str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_native_backend_unavailable_is_exit_2(self, tmp_path, capsys):
        from ringbench.native import native_available
        if native_available():
            pytest.skip("native backend present on this host")
        cfg_path = tmp_path / "cfg.json"
        data = to_dict(small_config())
        data["backend"] = "native"
        data["native"]["path"] = str(tmp_path / "target.bin")
        cfg_path.write_text(json.dumps(data))
        rc = main(["sweep-qd", "--config", str(cfg_path), "--out",
                   str(tmp_path)])
        assert rc == 2

    def test_native_sweep_qd_csv_bytes(self, tmp_path, capsys, monkeypatch):
        # a fake backend with fixed stats per seed pins the CSV bytes, the
        # excluded warm-up run (run 0) and the seeds passed (seed + run)
        from ringbench import native
        events, calls = [], []

        class FakeBackend:
            def close(self):
                events.append("close")

        def fake_open(native_cfg):
            events.append(native_cfg.path)
            return FakeBackend()

        def fake_bench(backend, op_count, queue_depth, block_size, seed):
            calls.append((op_count, queue_depth, block_size, seed))
            return {"elapsed_ns": 1000 * seed, "completed_ok": 10 * seed,
                    "errored": seed % 2, "iops": 1e9 / seed}

        monkeypatch.setattr(native, "native_open", fake_open)
        monkeypatch.setattr(native, "closed_loop_read_bench", fake_bench)
        target = str(tmp_path / "target.bin")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_data(**{
            "backend": "native", "native.path": target, "runs": 2,
            "seed": 7, "workload.op_count": 300})))
        rc = main(["sweep-qd", "--config", str(cfg_path), "--qd-list", "1,4",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = tmp_path / "sweep_qd_native.csv"
        assert capsys.readouterr().out == f"{out}\n"
        assert calls == [(300, qd, 4096, 7 + run)
                         for qd in (1, 4) for run in (0, 1, 2)]
        assert events == [target, "close"] * 6
        assert out.read_bytes() == (
            b"qd,run,elapsed_ns,completed_ok,errored,iops\n"
            b"1,1,8000,80,0,125000000.0\n"
            b"1,2,9000,90,1,111111111.1111111\n"
            b"4,1,8000,80,0,125000000.0\n"
            b"4,2,9000,90,1,111111111.1111111\n")

    def test_verify_passes_on_defaults(self, capsys):
        rc = main(["verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "VERIFY PASS" in out
        assert all(" FAIL" not in line for line in out.splitlines())

    def test_verify_fails_on_seeded_ring_violation(self, tmp_path, capsys):
        # cq smaller than sq violates the completion-loss invariant
        data = to_dict(defaults())
        data["architecture"]["ring"]["sq_capacity"] = 256
        data["architecture"]["ring"]["cq_capacity"] = 128
        cfg_path = tmp_path / "bad_ring.json"
        cfg_path.write_text(json.dumps(data))
        rc = main(["verify", "--config", str(cfg_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out


    def test_verify_reports_a_wrongly_typed_value(self, tmp_path, capsys):
        cfg_path = tmp_path / "typed.json"
        cfg_path.write_text('{"architecture": {"n_workers": "4"}}')
        rc = main(["verify", "--config", str(cfg_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert out.splitlines() == [
            "CHECK config_valid FAIL architecture.n_workers: must be int, "
            "got str", "VERIFY FAIL checks=1 failures=1"]


class TestOracle:
    def test_consumer_rate_oracle_caps_at_device(self):
        # 100 us service, 64 slots; 150 + 150 ns reap and submit; 2 instances
        cfg = small_config(**{"architecture.kind": "static_pool"})
        a = cfg.architecture
        assert consumer_rate_oracle(cfg.device, a.costs, 32, a.k_instances,
                                    0) == pytest.approx(320_000)
        slow = consumer_rate_oracle(cfg.device, a.costs, 32, a.k_instances,
                                    1_000_000)
        assert slow == pytest.approx(2e9 / 1_000_300)


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "ringbench.cli",
                               "--dump-defaults"], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0
        assert '"backend": "sim"' in proc.stdout
