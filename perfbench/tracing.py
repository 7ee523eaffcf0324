"""perf_counter spans around the public entry points of each zentropy module.

The program's source is not touched: `Tracer.installed()` swaps module and
class attributes for timing wrappers and puts the originals back on exit.
Only calls that go through the patched attribute are seen, which is every
call the CLI workloads make (cli calls `mdp_sim.action_z_scores` and
`anomaly_detect.replay` through the module, rl_agent and mdp_sim hold their
own imported names, which are patched separately).

A span's self time is its duration minus its child spans' durations; the
self times of one op's spans add up to the op span. Layer metrics are per
op; run.py reports each one's median over the traced ops.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter

from zentropy import anomaly_detect, cli, entropic_potential, mdp_sim, rl_agent

ROOT = "cli.main"
WRITE = "cli.write"


class Tracer:
    """Spans and counts of one traced op."""

    def __init__(self):
        self.spans: list = []       # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list = []
        self._branches: set = set()
        self._ranking = 0

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    # -- counters recorded at the span boundaries ------------------------
    # Hooks see the call's arguments by parameter name.

    def _on_rank(self, a):
        self._ranking += 1

    def _on_exact_branch(self, a):
        event = a.get("event")
        # one ranking evaluates branches of one model; a branch is its
        # (event, horizon) within that ranking
        self._branches.add((self._ranking, getattr(event, "id", None), a.get("horizon")))

    def _on_mc_branch(self, a):
        self.counts["samples_drawn"] += a.get("n", 0)

    def _on_walk(self, a):
        steps = a.get("n_first", 0) + a.get("n_rest", 0)
        self.counts["walk_steps"] += len(a.get("u", ())) * steps

    def _on_stream(self, a):
        self.counts["stream_events"] += len(a.get("values", ()))

    def _patch_table(self):
        """(owner, attribute, span name, counter hook)."""
        return [
            (cli, "cmd_gridworld", "cli.cmd", None),
            (cli, "cmd_train", "cli.cmd", None),
            (cli, "cmd_anomaly", "cli.cmd", None),
            (cli, "write_csv", WRITE, None),
            (cli, "write_json", WRITE, None),
            (mdp_sim, "action_z_scores", "mdp_sim.action_z_scores", None),
            (rl_agent, "action_z_scores", "mdp_sim.action_z_scores", None),
            (mdp_sim, "rank_events", "entropic_potential.rank_events", self._on_rank),
            (mdp_sim.GridWorldModel, "exact_future_distribution", "mdp_sim.exact_branch",
             self._on_exact_branch),
            (mdp_sim.GridWorldModel, "sample_future_outcomes", "mdp_sim.sample_branch", None),
            (mdp_sim, "walk_outcomes", "kernels.walk", self._on_walk),
            (entropic_potential, "mc_entropy_of_branch", "entropic_potential.mc_branch",
             self._on_mc_branch),
            (entropic_potential, "shannon_entropy", "entropy_core.shannon", None),
            (anomaly_detect, "replay", "anomaly_detect.replay", None),
            (anomaly_detect, "stream_scores", "kernels.stream", self._on_stream),
            (rl_agent, "train", "rl_agent.train", None),
        ]

    def _wrap(self, fn, name, hook):
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(sig.bind(*args, **kwargs).arguments)
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point in the patch table that exists.

        An entry point that the program no longer has is skipped, and its
        layer then reports 0.
        """
        saved = []
        try:
            for owner, attr, name, hook in self._patch_table():
                fn = vars(owner).get(attr)
                if fn is None:
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, hook))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- per-op summary ----------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the one op recorded so far."""
        dur = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        total, self_s, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, _, _, _) in enumerate(self.spans):
            total[name] += dur[i]
            self_s[name] += dur[i] - child[i]
            calls[name] += 1
        under_train = sum(dur[i] for i, s in enumerate(self.spans)
                          if s[0] == "mdp_sim.action_z_scores" and self._inside(i, "rl_agent.train"))
        walk_steps = self.counts["walk_steps"]
        events = self.counts["stream_events"]
        exact_calls = calls["mdp_sim.exact_branch"]
        m = {
            "cli.self_s": self_s[ROOT] + self_s["cli.cmd"],
            "cli.write_s": total[WRITE],
            "mdp_sim.exact_branch_s": total["mdp_sim.exact_branch"],
            "mdp_sim.exact_branch.calls": exact_calls,
            "mdp_sim.distinct_branch_ratio":
                len(self._branches) / exact_calls if exact_calls else 0.0,
            "mdp_sim.action_z_scores.calls": calls["mdp_sim.action_z_scores"],
            "mdp_sim.action_z_scores.self_s": self_s["mdp_sim.action_z_scores"],
            "mdp_sim.sample_branch.self_s": self_s["mdp_sim.sample_branch"],
            "mdp_sim.sample_branch.calls": calls["mdp_sim.sample_branch"],
            "entropic_potential.rank_events.self_s": self_s["entropic_potential.rank_events"],
            "entropic_potential.mc_branch.self_s": self_s["entropic_potential.mc_branch"],
            "entropic_potential.samples_drawn": self.counts["samples_drawn"],
            "entropy_core.shannon_s": total["entropy_core.shannon"],
            "entropy_core.shannon.calls": calls["entropy_core.shannon"],
            "kernels.walk_s": total["kernels.walk"],
            "kernels.walk_steps": walk_steps,
            "kernels.walk_ns_per_step":
                total["kernels.walk"] * 1e9 / walk_steps if walk_steps else 0.0,
            "kernels.stream_s": total["kernels.stream"],
            "kernels.stream_us_per_event":
                total["kernels.stream"] * 1e6 / events if events else 0.0,
            "anomaly_detect.replay.self_s": self_s["anomaly_detect.replay"],
            "rl_agent.z_refresh_s": under_train,
            "rl_agent.train.self_s": self_s["rl_agent.train"],
        }
        m["trace.accounted_ratio"] = sum(m[k] for k in SELF_TIME_METRICS) / total[ROOT]
        return m

    def _inside(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


# Layer self times that partition one op's traced wall time.
SELF_TIME_METRICS = (
    "cli.self_s", "cli.write_s", "mdp_sim.exact_branch_s",
    "mdp_sim.action_z_scores.self_s", "mdp_sim.sample_branch.self_s",
    "entropic_potential.rank_events.self_s", "entropic_potential.mc_branch.self_s",
    "entropy_core.shannon_s", "kernels.walk_s", "kernels.stream_s",
    "anomaly_detect.replay.self_s", "rl_agent.train.self_s",
)


# Unit of every per-layer metric run.py emits with --trace 1, by layer.
UNITS = {
    "cli.self_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "mdp_sim.exact_branch_s": "s",
    "mdp_sim.exact_branch.calls": "count",
    "mdp_sim.distinct_branch_ratio": "ratio",
    "mdp_sim.action_z_scores.calls": "count",
    "mdp_sim.action_z_scores.self_s": "s",
    "mdp_sim.sample_branch.self_s": "s",
    "mdp_sim.sample_branch.calls": "count",
    "entropic_potential.rank_events.self_s": "s",
    "entropic_potential.mc_branch.self_s": "s",
    "entropic_potential.samples_drawn": "count",
    "entropy_core.shannon_s": "s",
    "entropy_core.shannon.calls": "count",
    "kernels.walk_s": "s",
    "kernels.walk_steps": "count",
    "kernels.walk_ns_per_step": "ns",
    "kernels.stream_s": "s",
    "kernels.stream_us_per_event": "us",
    "anomaly_detect.replay.self_s": "s",
    "anomaly_detect.events_flagged": "count",
    "rl_agent.z_refresh_s": "s",
    "rl_agent.z_refreshes": "count",
    "rl_agent.train.self_s": "s",
    "rl_agent.env_steps": "count",
    "trace.accounted_ratio": "ratio",
    "trace_overhead_ratio": "ratio",
}
