import math

from loadgen import POLL_S, OpenLoop


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class FakeService:
    """Submit costs ``submit_s`` of clock time; job ``i`` is done ``run_s[i]``
    after it was submitted; results carry the spec back."""

    def __init__(self, clock, submit_s, run_s, hits=()):
        self.clock, self.submit_s, self.run_s, self.hits = clock, submit_s, run_s, hits
        self.done_at = {}
        self.specs = {}

    def submit(self, spec):
        self.clock.now += self.submit_s
        job_id = f"job-{len(self.done_at)}"
        i = spec["i"]
        self.specs[job_id] = spec
        if i in self.hits:
            self.done_at[job_id] = self.clock.now
            return {"job_id": job_id, "state": "done"}
        self.done_at[job_id] = self.clock.now + self.run_s[i]
        return {"job_id": job_id, "state": "queued"}

    def status(self, job_id):
        done = self.clock.now >= self.done_at[job_id]
        return {"job_id": job_id, "state": "done" if done else "running"}

    def result(self, job_id):
        return {"spec": self.specs[job_id]}


def test_latency_runs_from_due_time_and_lateness_is_reported():
    clock = FakeClock()
    service = FakeService(clock, submit_s=0.25, run_s={0: 1.0, 1: 1.0, 2: 0.0}, hits={2})
    arrivals = [(0.0, {"i": 0}), (0.1, {"i": 1}), (0.2, {"i": 2})]
    gen = OpenLoop(arrivals, service, clock, clock.sleep)
    out = gen.run()
    # job 1 was due at 0.1 but the generator was busy submitting job 0
    # until 0.25: it went out 0.15 late, and job 2 (due 0.2) at 0.5.
    assert math.isclose(out[0].late_s, 0.0)
    assert math.isclose(out[1].late_s, 0.15)
    assert math.isclose(out[2].late_s, 0.3)
    # a hit is answered at submit: latency = lateness + submit time.
    assert out[2].hit and math.isclose(out[2].latency_s, 0.3 + 0.25)
    # a queued job: due -> done after polling; latency counts from *due*.
    assert not out[1].hit
    assert out[1].latency_s >= 0.15 + 0.25 + 1.0
    assert out[1].latency_s < 0.15 + 0.25 + 1.0 + POLL_S + 1e-9


def test_failures_count_with_infinite_latency():
    clock = FakeClock()
    service = FakeService(clock, submit_s=0.01, run_s={0: 0.1, 1: 0.1})

    def check(job):
        return "planted mismatch" if job.spec["i"] == 1 else None

    out = OpenLoop([(0.0, {"i": 0}), (0.0, {"i": 1})], service, clock,
                   clock.sleep, check=check).run()
    assert not out[0].failed
    assert out[1].failed and out[1].latency_s == math.inf


def test_first_polls_are_spread_over_the_interval():
    # equal jobs must not all be seen on the same poll step
    clock = FakeClock()
    n = 20
    service = FakeService(clock, submit_s=0.0, run_s={i: 0.12 for i in range(n)})
    out = OpenLoop([(i * 1.0, {"i": i}) for i in range(n)], service, clock, clock.sleep).run()
    latencies = sorted(job.latency_s for job in out)
    assert all(0.12 <= lat < 0.12 + POLL_S + 1e-9 for lat in latencies)
    assert latencies[-1] - latencies[0] > 0.8 * POLL_S
