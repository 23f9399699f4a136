"""The benchmark's own arithmetic.  Run: ``python3 -m pytest perfbench/tests -q``."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import benchstats  # noqa: E402
import hostclock  # noqa: E402
import serveload  # noqa: E402
from benchstats import Outcomes, Span  # noqa: E402
from tracer import Paired, Tracer  # noqa: E402


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert benchstats.percentile(values, 0.5) == 50
        assert benchstats.percentile(values, 0.9) == 90
        assert benchstats.percentile(values, 1.0) == 100
        assert benchstats.percentile([7.0], 0.9) == 7.0

    def test_order_does_not_matter(self):
        assert benchstats.percentile([5, 1, 4, 2, 3], 0.5) == 3

    def test_rejects_empty_and_bad_fraction(self):
        with pytest.raises(ValueError):
            benchstats.percentile([], 0.5)
        with pytest.raises(ValueError):
            benchstats.percentile([1], 0.0)

    def test_p90_needs_ten_samples_beyond(self):
        assert benchstats.samples_beyond(100, 0.9) == 10
        assert benchstats.reportable(list(range(100)), 0.9) == 89
        assert benchstats.samples_beyond(99, 0.9) == 9
        assert benchstats.reportable(list(range(99)), 0.9) is None

    def test_median_always_reportable(self):
        assert benchstats.reportable([3.0], 0.5) == 3.0
        assert benchstats.reportable([], 0.5) is None

    def test_sum_of_medians_ignores_one_slow_call(self):
        # One slow call in pass 2 would make that pass the median of three
        # pass sums; per-item medians leave it out.
        groups = [[1.0, 1.0, 9.0], [2.0, 3.0, 2.5]]
        assert benchstats.sum_of_medians(groups) == pytest.approx(1.0 + 2.5)


class TestHostSpeed:
    PROBES = [[0.0, 0.030], [1.0, 0.030], [10.0, 0.015], [11.0, 0.015]]

    def test_sample_is_rescaled_by_the_probes_near_it(self):
        # Around the first sample the loop took twice its nominal 15 ms.
        samples = [[1.0, 0.5, 0.6], [1.0, 10.2, 10.5]]
        assert benchstats.rescaled(samples, self.PROBES, 0.015, 2.0) == pytest.approx([0.5, 1.0])

    def test_window_takes_the_median_of_every_probe_in_it(self):
        assert benchstats.rescaled([[3.0, 5.0, 6.0]], self.PROBES, 0.015, 10.0) == pytest.approx([2.0])

    def test_elasticity_takes_out_part_of_the_speed_change(self):
        # The loop ran at half speed; an elasticity of 0.5 takes out a factor of sqrt(2).
        got = benchstats.rescaled([[1.0, 0.5, 0.6]], self.PROBES, 0.015, 2.0, elasticity=0.5)
        assert got == pytest.approx([2 ** -0.5])
        assert benchstats.rescaled([[1.0, 0.5, 0.6]], self.PROBES, 0.015, 2.0, elasticity=0.0) == [1.0]

    def test_sample_without_a_probe_near_it_is_an_error(self):
        with pytest.raises(ValueError):
            benchstats.rescaled([[1.0, 5.0, 5.5]], self.PROBES, 0.015, 1.0)

    def test_bracket_probes_before_and_after(self):
        clock = hostclock.Clock(fake_probe=lambda: 2 * hostclock.REFERENCE_S)
        with clock.bracket() as timed:
            pass
        raw = timed.sample()[0]
        assert clock.seconds([timed.sample()]) == pytest.approx([raw / 2 ** hostclock.ELASTICITY])
        assert len(clock.probes) == 2 and clock.slowdown() == pytest.approx(2.0)

    def test_probe_runs_a_helper_per_cpu_and_stops_them(self):
        import os

        with hostclock.Clock() as clock:
            helpers = list(clock._helpers)
            assert len(helpers) == len(os.sched_getaffinity(0))
            with clock.bracket():
                pass
        assert len(clock.probes) == 2 and all(seconds > 0 for _, seconds in clock.probes)
        assert all(helper.poll() is not None for helper in helpers)


class TestOpenLoop:
    def test_latency_counts_from_due_time(self):
        # Sent 30 ms late, completed 50 ms after sending: 80 ms from due.
        due, sent, done = 10.0, 10.030, 10.080
        assert benchstats.open_loop_latency(due, done) == pytest.approx(0.080)
        assert benchstats.lateness(due, sent) == pytest.approx(0.030)

    def test_early_send_is_not_negative_lateness(self):
        assert benchstats.lateness(5.0, 4.999) == 0.0

    def test_warm_means_finished_before_due(self):
        first_finish = {"a": 2.0, "b": 9.0}
        jobs = [(1.0, "a"), (2.0, "a"), (3.0, "a"), (3.0, "b"), (3.0, "never")]
        assert benchstats.classify_warm(jobs, first_finish) == [False, True, True, False, False]


class TestOpenLoopMix:
    def test_shares_are_exact(self):
        plan = serveload.open_schedule(7, 200)
        kinds = [kind for _, _, kind in plan]
        mix = serveload.open_mix(200)
        assert mix == {"new": 90, "repeat": 80, "duplicate": 30}
        assert {kind: kinds.count(kind) for kind in mix} == mix

    def test_repeats_and_duplicates_copy_the_right_specs(self):
        plan = serveload.open_schedule(7, 200)
        first_due = {}
        for due, spec, kind in plan:
            key = repr(sorted(spec.items()))
            if kind == "new":
                assert key not in first_due
                first_due[key] = due
            elif kind == "repeat":
                assert due - first_due[key] >= serveload.REPEAT_AGE_S
            else:
                assert due - first_due[key] == pytest.approx(serveload.DUPLICATE_LAG_S)
        assert [due for due, _, _ in plan] == sorted(due for due, _, _ in plan)

    def test_same_seed_same_plan(self):
        assert serveload.open_schedule(3, 120) == serveload.open_schedule(3, 120)
        assert serveload.open_schedule(3, 120) != serveload.open_schedule(4, 120)


class TestClosedLoop:
    def test_only_completions_count(self, monkeypatch):
        from repro.serve.client import ServeError

        class FakeClient:
            def submit(self, batch):
                return [{"id": spec["id"], "fingerprint": spec["id"]} for spec in batch]

            def wait(self, job_id, timeout, poll):
                if job_id.startswith("refused"):
                    raise ServeError("HTTP 429: full", status=429)
                if job_id.startswith("slow"):
                    raise ServeError(f"timed out waiting for job {job_id}")
                return {"result": job_id}

        monkeypatch.setattr(serveload, "client", lambda url: FakeClient())
        specs = [{"id": f"ok-{i}"} for i in range(5)] + [{"id": "refused-0"}, {"id": "slow-0"}]
        outcomes, served = Outcomes(), {}
        wall, done = serveload.closed_loop("http://unused", specs, outcomes, served)
        assert done == 5 and wall >= 0.0
        assert (outcomes.attempted, outcomes.failed) == (7, 2)
        assert outcomes.reasons == {"refused_429": 1, "timeout": 1}


class TestSequential:
    def test_failures_are_counted_and_latencies_scaled(self, monkeypatch):
        from repro.serve.client import ServeError

        class FakeClient:
            def submit(self, spec):
                if spec["id"] == "refused":
                    raise ServeError("HTTP 429: full", status=429)
                return [{"id": spec["id"], "fingerprint": spec["id"]}]

            def wait(self, job_id, timeout, poll):
                return {"result": job_id}

        monkeypatch.setattr(serveload, "client", lambda url: FakeClient())
        specs = [{"id": "refused"}] + [{"id": f"ok-{i}"} for i in range(serveload.SEQUENTIAL_ROUND + 3)]
        outcomes, served = Outcomes(), {}
        clock = hostclock.Clock(fake_probe=lambda: 4 * hostclock.REFERENCE_S)
        cold, warm = serveload.sequential("http://unused", specs, 5, clock, outcomes, served)
        assert len(cold) == len(specs) - 1 == len(served)
        # The first warm request can only repeat the refused spec, and fails too.
        assert len(warm) <= len(specs) - 1
        assert outcomes.attempted == 2 * len(specs)
        assert outcomes.failed == 2 * len(specs) - len(cold) - len(warm)
        assert outcomes.reasons == {"refused_429": outcomes.failed}
        # Two rounds, each between two probes at a quarter of the reference speed.
        assert len(clock.probes) == 4 and clock.slowdown() == pytest.approx(4.0)
        assert all(latency >= 0 for latency in cold + warm)


class TestFailures:
    def test_429_and_timeouts_are_failures(self):
        assert benchstats.failure_reason(429) == "refused_429"
        assert benchstats.failure_reason(None, TimeoutError("read timed out")) == "timeout"
        assert benchstats.failure_reason(None, RuntimeError("GET /x failed after 1 attempt(s): HTTP 429: full")) == "refused_429"
        assert benchstats.failure_reason(None, RuntimeError("timed out waiting for job j-1")) == "timeout"
        assert benchstats.failure_reason(None, ConnectionError("refused")) == "transport"
        assert benchstats.failure_reason(500) == "http_500"
        assert benchstats.failure_reason(200) is None

    def test_tally(self):
        tally = Outcomes()
        tally.ok()
        tally.fail("refused_429")
        tally.fail("timeout")
        tally.fail("timeout")
        assert (tally.attempted, tally.failed, tally.succeeded) == (4, 3, 1)
        assert tally.reasons == {"refused_429": 1, "timeout": 2}


class TestSpans:
    def test_self_time_subtracts_children(self):
        spans = [
            Span(0, "job", 0.0, 10.0),
            Span(1, "build", 0.0, 3.0, parent=0),
            Span(2, "run", 4.0, 9.0, parent=0),
            Span(3, "ingest", 5.0, 6.0, parent=2),
        ]
        own = benchstats.self_times(spans)
        assert own == {0: pytest.approx(2.0), 1: pytest.approx(3.0), 2: pytest.approx(4.0), 3: pytest.approx(1.0)}
        assert benchstats.self_time_by_name(spans)["run"] == [pytest.approx(4.0)]

    def test_overlapping_children_count_once_and_clip_to_parent(self):
        spans = [
            Span(0, "job", 0.0, 10.0),
            Span(1, "a", -1.0, 4.0, parent=0),
            Span(2, "b", 3.0, 6.0, parent=0),
        ]
        assert benchstats.self_times(spans)[0] == pytest.approx(4.0)

    def test_layer_gap(self):
        tiled = [Span(0, "job", 0.0, 10.0), Span(1, "a", 0.0, 6.0, 0), Span(2, "b", 6.0, 10.0, 0)]
        assert benchstats.layer_gap(tiled, 0) == pytest.approx(0.0)
        holed = [Span(0, "job", 0.0, 10.0), Span(1, "a", 0.0, 6.0, 0), Span(2, "b", 7.0, 10.0, 0)]
        assert benchstats.layer_gap(holed, 0) == pytest.approx(0.1)

    def test_tracer_nests_and_disabled_records_nothing(self):
        tracer = Tracer(True)
        with tracer.span("job", job="j") as root:
            with tracer.span("layer", job="j"):
                pass
        tracer.add("remote", 1.0, 2.0, root, "j")
        names = [(s.name, s.parent) for s in tracer.spans]
        assert names == [("job", None), ("layer", 0), ("remote", 0)]
        assert all(s.end >= s.start for s in tracer.spans)
        off = Tracer(False)
        with off.span("job"):
            pass
        assert off.spans == []

    def test_tracer_add_across_threads(self):
        import threading

        tracer = Tracer(True)
        roots = []

        def record(i):
            roots.append(tracer.add("job", float(i), float(i), None, str(i)))

        threads = [threading.Thread(target=record, args=(i,)) for i in range(50)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(roots) == list(range(50))
        assert all(tracer.spans[i].id == i for i in roots)
        assert Tracer(False).add("job", 0.0, 1.0, None) is None

    def test_paired_warms_once_per_kind_and_sums_both_walls(self):
        seen = []

        def call(tracer):
            seen.append(tracer.enabled)
            with tracer.span("job"):
                pass
            return tracer.enabled

        paired = Paired()
        assert paired.run(call, "a") == (False, True)
        assert paired.run(call, "a") == (False, True)
        paired.run(call, "b")
        # One untimed warm-up per kind, then one untraced and one traced run per call.
        assert seen.count(False) == 2 + 3 and seen.count(True) == 3
        assert len(paired.tracer.spans) == 3
        assert paired.walls[0] > 0 and paired.walls[1] > 0
        paired.walls = [2.0, 2.1]
        assert paired.overhead_pct() == pytest.approx(5.0)


class TestServeSpans:
    def spans(self, worker):
        tracer = Tracer(True)
        root = tracer.add("job.serve", 0.0, 0.050, None, "j")
        tracer.add("serve.generator_late", 0.0, 0.001, root, "j")
        record = {"id": "j", "span": root, "sent": 0.001, "finished": 0.050}
        routed = {"j": {"submitted_at": 0.002, "finished_at": 0.050}}
        serveload.server_spans(tracer, [record], routed, {"j": worker})
        return tracer.spans, root

    def test_nested_stamps_leave_no_gap(self):
        spans, root = self.spans({"submitted_at": 0.004, "started_at": 0.005, "finished_at": 0.045})
        assert benchstats.layer_gap(spans, root) == pytest.approx(0.0, abs=1e-9)
        own = benchstats.self_time_by_name(spans)
        assert own["serve.router"] == [pytest.approx(0.007)]
        assert own["serve.client.request"] == [pytest.approx(0.001)]

    def test_worker_stamps_outside_the_router_show_as_a_gap(self):
        # A worker interval that ends after the router's completion stamp is
        # counted twice: once in the router's self time, once in exec.
        spans, root = self.spans({"submitted_at": 0.004, "started_at": 0.005, "finished_at": 0.060})
        assert benchstats.layer_gap(spans, root) == pytest.approx(0.2)
