"""Seeded workloads of the nahm-forge benchmark.

Each workload has an input generator (seed -> inputs, nothing else), one
operation run on each input through the public library entry points, and a
check of a pass's outputs.  A pass never aborts: an operation that raises or
fails its check is counted and the pass goes on.  Checks run after the pass,
outside the timed and traced region.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from nahm_forge import modular, nahm, recognizer, registry, series, zlaurent

# The two lru_cached component builders.  Bound here, before any tracing
# wrapper replaces the module attributes, so cache_clear/cache_info always
# reach the real caches.
COMPONENT_CACHES = (modular.component_series_u, modular.component_series_v)

SWEEP_ORDER = 400
SWEEP_PARAM_ORDER = 100

HUNT_A = ((2, 1), (2, 2))
HUNT_D = (1, 2)
HUNT_ORDER = 121
HUNT_MAX_N = 120
HUNT_MAX_ABS = 4
# The 63-point family-1 grid of acceptance criterion 7, b1 in {x/2 : |x| <= 4},
# b2 in {-2..4}.  The seed sets only the order: a few non-integral points
# cost up to 1.5 s each, so a seeded subset of a larger box would make the
# pass time depend on the seed far more than on the code.
HUNT_GRID = tuple((Fraction(x, 2), Fraction(y))
                  for x in range(-4, 5) for y in range(-2, 5))

MODULAR_POINTS = 300
MODULAR_TOL = 1e-9

CT_A = ((2, -1), (-2, 2))
CT_D = (1, 2)
CT_ORDER = 200
CT_PAIRS = 6
# u < -1 or u + v < -1 raises WindowOverflow (a domain limit of the route);
# this box stays inside the domain.
CT_BOX = tuple((u, v) for u in range(0, 4) for v in range(-1, 4))

# sha256 of the canonical output JSON of a full pass, pinned from the
# library's own results; the set of records and grid points does not depend
# on the seed, only their order does.  The hunt digest covers the 11 hits
# that acceptance criterion 7 reports on this grid.
PINNED_DIGESTS = {
    "sweep": "b9b87ed897c44338dda44d50274f1ab14f031806b484e3bb827bb614c24f582b",
    "hunt": "647f535bf6f612c5c04ff7211f64d93f9c7d0cc31a121b35276f036227f296c0",
}


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"perfbench-{name}-{seed}")


def sweep_inputs(seed: int) -> list:
    tasks = [(r.id, SWEEP_PARAM_ORDER if r.params else SWEEP_ORDER)
             for r in registry.registry()]
    _rng("sweep", seed).shuffle(tasks)
    return tasks


def hunt_inputs(seed: int) -> list:
    pts = list(HUNT_GRID)
    _rng("hunt", seed).shuffle(pts)
    return pts


def modular_inputs(seed: int) -> list:
    rng = _rng("modular", seed)
    return [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
            for _ in range(MODULAR_POINTS)]


def ct_inputs(seed: int) -> list:
    return _rng("ct", seed).sample(CT_BOX, CT_PAIRS)


@dataclass
class PassResult:
    """One pass: its wall time, each operation's latency and output (None
    where it raised), then, from the workload's check, the failures (one
    short reason each) and a digest of every output."""
    wall_s: float = 0.0
    op_s: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    digest: str = ""

    @property
    def attempted(self) -> int:
        return len(self.op_s)


def run_ops(op, items: list) -> PassResult:
    """Run op on every item, timing each; an operation that raises is
    recorded as a failure and the pass goes on."""
    res = PassResult()
    t_pass = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        try:
            out = op(item)
        except Exception as exc:  # one bad operation must not abort the pass
            out = None
            res.failures.append(f"{item}: {type(exc).__name__}: {exc}")
        res.op_s.append(time.perf_counter() - t0)
        res.outputs.append(out)
    res.wall_s = time.perf_counter() - t_pass
    return res


def sweep_op(task):
    rid, order = task
    return registry.verify(rid, order)


def sweep_check(res: PassResult):
    reports = []
    for rep in filter(None, res.outputs):
        if rep.result not in ("pass", "conjecture_pass"):
            res.failures.append(f"{rep.id}: {rep.result}")
        js = rep.to_json()
        del js["ms"]
        reports.append(js)
    res.digest = digest(sorted(reports, key=lambda js: js["id"]))


def hunt_op(b):
    return recognizer.hunt(HUNT_A, HUNT_D, [b], order=HUNT_ORDER,
                           max_n=HUNT_MAX_N, max_abs=HUNT_MAX_ABS)


def _roundtrips(hit) -> bool:
    """Criterion 7(b): the hit's profile rebuilds its own series to order 120."""
    s = nahm.nahm_sum(nahm.quadruple(HUNT_A, hit.b, 0, HUNT_D), HUNT_ORDER).reduce()
    if hit.profile.substitution > 1:
        s = s.power_substitute(hit.profile.substitution)
    rebuilt = hit.profile.rebuild(HUNT_MAX_N)
    n = min(rebuilt.order, s.order, Fraction(HUNT_MAX_N))
    return series.eq_to_order(rebuilt.truncate(n), s.truncate(n), n) is None


def hunt_check(res: PassResult):
    hits = [h for found in filter(None, res.outputs) for h in found]
    for h in hits:
        if not _roundtrips(h):
            res.failures.append(f"b={h.b}: profile does not round-trip")
    res.digest = digest(sorted((h.to_json() for h in hits), key=lambda js: js["b"]))


def modular_items(taus: list) -> list:
    return [(tau, rel) for tau in taus for rel in modular.relations()]


def modular_op(item):
    tau, rel = item
    return modular.check_transformation(rel, tau, tol=MODULAR_TOL)


def modular_check(res: PassResult):
    reports = list(filter(None, res.outputs))
    for rep in reports:
        if not rep.passed:
            res.failures.append(
                f"{rep.theorem} at {rep.tau}: deviation {rep.max_dev:.3g}")
    res.digest = digest([rep.to_json() for rep in reports])


def ct_op(pair):
    """Constant-term route against the direct double sum, both at order 200."""
    u, v = pair
    ct = zlaurent.double_sum_ct(u, v, CT_ORDER)
    direct = nahm.nahm_sum(nahm.quadruple(CT_A, (u, v), 0, CT_D), CT_ORDER)
    return u, v, ct, series.eq_to_order(ct, direct, CT_ORDER)


def ct_check(res: PassResult):
    expansions = []
    for u, v, ct, mismatch in filter(None, res.outputs):
        if mismatch is not None:
            res.failures.append(f"(u, v)=({u}, {v}): first mismatch {mismatch}")
        expansions.append([u, v, sorted((k, str(c)) for k, c in ct.coeffs.items())])
    res.digest = digest(expansions)


@dataclass(frozen=True)
class Workload:
    inputs: Callable      # seed -> generated inputs
    op: Callable          # one operation, timed
    check: Callable       # fills a pass's failures and digest; run untraced
    items: Callable = list  # inputs -> the operations' arguments


WORKLOADS = {
    "sweep": Workload(sweep_inputs, sweep_op, sweep_check),
    "hunt": Workload(hunt_inputs, hunt_op, hunt_check),
    "modular": Workload(modular_inputs, modular_op, modular_check, modular_items),
    "ct": Workload(ct_inputs, ct_op, ct_check),
}


def _jsonable(x):
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (tuple, list)):
        return [_jsonable(y) for y in x]
    if isinstance(x, Fraction):
        return str(x)
    return x


def inputs_json(name: str, seed: int) -> list:
    """The generated inputs of a workload, as JSON."""
    return _jsonable(WORKLOADS[name].inputs(seed))


def clear_caches():
    """Cold state for a pass: drop the memoised component series.

    registry() stays memoised: building it is part of the measured set-up.
    """
    for cached in COMPONENT_CACHES:
        cached.cache_clear()


def cache_metrics() -> dict:
    """Hits and misses of the component caches since the last clear."""
    infos = [cached.cache_info() for cached in COMPONENT_CACHES]
    return {"modular.component_cache.hits": sum(i.hits for i in infos),
            "modular.component_cache.misses": sum(i.misses for i in infos)}
