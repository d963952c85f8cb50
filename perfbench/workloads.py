"""Set-up and the three workloads: ``oneshot``, ``served``, ``two-stage``.

Every workload is a closed loop -- each caller waits for its answer
before it asks again -- over the ten pairs of the five paper policies,
on the 4-core exhaustive frame (12 650 workloads) at ``full`` trace
length.  A measured phase runs whole cycles through the pairs, so every
run asks each pair equally often.  The benchmark's seed only permutes
the order of the pairs: the session seed is part of the model
signature, so it stays 0.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import random
import resource
import shutil
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from perfbench import check
from perfbench.spans import Request

POLICIES = ("LRU", "DIP", "NRU", "SRRIP", "SHIP")
PAIRS: List[Tuple[str, str]] = list(itertools.combinations(POLICIES, 2))
SESSION = {"scale": "full", "seed": 0, "jobs": 1}
ESTIMATE = {"cores": 4, "sample": 12650, "draws": 1000}
TWO_STAGE = {"refine_backend": "badco"}
#: Refine budget of the ``two-stage`` workload.
REFINE_BUDGET = 10
#: Refine budget of the two-stage request that opens each ``oneshot``
#: group: smaller, so a whole cycle of ten groups fits one run.
ONESHOT_REFINE_BUDGET = 4
#: Concurrent client connections of the ``served`` workload.  One
#: leaves the second of the host's two cores to everything else, so a
#: busy neighbour slows the daemon less than it would slow two callers.
CLIENTS = 1


class SetupError(RuntimeError):
    """Set-up found the inputs unfit to measure; nothing was timed."""


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Window:
    """Wall and process CPU time of one measured phase.

    Housekeeping inside :meth:`paused` (deleting cache directories) is
    left out of both.
    """

    def __init__(self) -> None:
        self._wall = time.perf_counter()
        self._cpu = _cpu_seconds()
        self.wall = 0.0
        self.cpu = 0.0

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        wall, cpu = time.perf_counter(), _cpu_seconds()
        try:
            yield
        finally:
            self._wall += time.perf_counter() - wall
            self._cpu += _cpu_seconds() - cpu

    def close(self) -> "Window":
        self.wall = time.perf_counter() - self._wall
        self.cpu = _cpu_seconds() - self._cpu
        return self


def _training_runs(answer: Any) -> int:
    return answer.training_runs + getattr(answer, "refine_training_runs", 0)


class Context:
    """State one run shares between set-up and its workload.

    Args:
        work: a private scratch directory inside the checkout.
        seed: permutes the order in which callers visit the pairs.
    """

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.store = work / "models"
        self.reference_cache = work / "reference"
        order = list(PAIRS)
        random.Random(seed).shuffle(order)
        self.order = order
        self.expected = (check.load_expected()
                         if check.EXPECTED_PATH.exists() else None)
        #: pair -> one-shot answer fields, computed at set-up.
        self.references: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self.audit: List[Dict[str, Any]] = []
        self._scratch = itertools.count()

    def session(self, cache_dir: Path):
        from repro import Session

        return Session(cache_dir=cache_dir, model_store_dir=self.store,
                       **SESSION)

    def scratch_dir(self) -> Path:
        return self.work / f"cache-{next(self._scratch)}"

    def train(self):
        """Train the model store from empty; returns the session.

        The training campaign scores the whole frame under all five
        policies into ``reference_cache``, so the references computed
        from this session read panels already in memory.
        """
        session = self.session(self.reference_cache)
        population = session.population(ESTIMATE["cores"],
                                         ESTIMATE["sample"])
        session.results("analytic", ESTIMATE["cores"], policies=POLICIES,
                        workloads=list(population))
        return session

    def two_stage(self, pair: Tuple[str, str], cache_dir: Path,
                  budget: int):
        return self.session(cache_dir).estimate_two_stage(
            *pair, **ESTIMATE, **TWO_STAGE, refine_budget=budget)

    def set_up(self) -> None:
        """Train the store and compute one reference answer per pair.

        Each reference is checked against ``expected.json``, and the
        pairs' d(w) must carry signal: at least one pair needs more
        than one workload stratum.
        """
        session = self.train()
        for pair in PAIRS:
            answer = check.answer_fields(
                session.estimate_full_scale(*pair, **ESTIMATE))
            wrong = check.mismatches(
                answer, self.expected["one_shot"][check.pair_key(*pair)],
                check.RELATIVE_TOLERANCE)
            if wrong:
                raise SetupError(f"{check.pair_key(*pair)} reference "
                                 f"differs from expected.json in {wrong}")
            self.references[pair] = answer
            self.audit.append({"pair": check.pair_key(*pair),
                               "inverse_cv": answer["inverse_cv"],
                               "num_strata": answer["num_strata"]})
        if not any(row["num_strata"] > 1 for row in self.audit):
            raise SetupError(
                "no pair has more than one workload stratum: d(w) carries "
                "no signal, so strata and confidence would time a "
                "constant column")

    def one_shot_ok(self, pair: Tuple[str, str], answer: Any) -> bool:
        return not check.mismatches(check.answer_fields(answer),
                                    self.references[pair])

    def two_stage_ok(self, pair: Tuple[str, str], answer: Any,
                     budget: int) -> bool:
        return not check.two_stage_mismatches(
            check.answer_fields(answer), self.references[pair],
            self.expected["two_stage"][str(budget)][check.pair_key(*pair)])


def _timed(requests: List[Request], pair: Tuple[str, str], call,
           verify) -> Any:
    """Run one request, time it, check its answer and record it."""
    request = Request(threading.get_ident(), pair, time.perf_counter(), 0.0)
    try:
        answer = call()
    except Exception:
        request.end = time.perf_counter()
        request.ok = False
        requests.append(request)
        traceback.print_exc()       # counted as failed; shown on stderr
        return None
    request.end = time.perf_counter()
    request.ok = verify(pair, answer)
    request.training_runs = _training_runs(answer)
    requests.append(request)
    return answer


#: One request of a group: the call, and the check of its answer.
Call = Tuple[Callable[[], Any], Callable[[Tuple[str, str], Any], bool]]


class Workload:
    """One workload: its own set-up, then repeated measured phases.

    The base class is a single caller that asks the requests of
    :meth:`group` on each pair in one fresh cache directory, cycling
    through the pairs, and deletes the directory after each group
    outside the timed interval.  A phase runs whole cycles and starts
    another only while time remains.
    """

    name = ""

    def __init__(self, context: Context) -> None:
        self.context = context

    def prepare(self) -> None:
        """Workload-specific set-up after the common one."""

    def group(self, pair: Tuple[str, str], cache_dir: Path) -> List[Call]:
        """The requests asked on ``pair`` in one fresh cache directory."""
        raise NotImplementedError

    def measure(self, seconds: float, pairs: List[Tuple[str, str]]
                ) -> Tuple[List[Request], Window]:
        """Cycle through ``pairs`` for ``seconds``, at least once.

        Returns the requests and the window.
        """
        context = self.context
        requests: List[Request] = []
        window = Window()
        deadline = time.perf_counter() + seconds
        while True:
            for pair in pairs:
                cache_dir = context.scratch_dir()
                for call, verify in self.group(pair, cache_dir):
                    _timed(requests, pair, call, verify)
                with window.paused():
                    shutil.rmtree(cache_dir, ignore_errors=True)
            if time.perf_counter() >= deadline:
                return requests, window.close()

    def daemon_counters(self) -> Optional[Dict[str, float]]:
        """The daemon's cumulative counters, for workloads that have one."""
        return None

    def close(self) -> None:
        """Release what :meth:`prepare` started."""


class OneShot(Workload):
    """A fresh :class:`Session` per request, one caller.

    Requests come in groups of four on one pair in a fresh
    campaign-cache directory.  The first is a two-stage estimate with a
    badco refine of :data:`ONESHOT_REFINE_BUDGET` rows, and misses:
    models load, the analytic grid is evaluated, the badco simulator
    scores the refined rows, and both panels are written.  The other
    three are one-shot estimates that hit and load the analytic panel.
    """

    name = "oneshot"

    def group(self, pair: Tuple[str, str], cache_dir: Path) -> List[Call]:
        context = self.context
        one_shot = (lambda: context.session(cache_dir).estimate_full_scale(
            *pair, **ESTIMATE), context.one_shot_ok)
        refine = (lambda: context.two_stage(pair, cache_dir,
                                            ONESHOT_REFINE_BUDGET),
                  functools.partial(context.two_stage_ok,
                                    budget=ONESHOT_REFINE_BUDGET))
        return [refine] + [one_shot] * 3


class TwoStage(Workload):
    """Analytic screen plus a 10-row badco refine, one caller.

    Each request uses a fresh :class:`Session` and a fresh cache
    directory.
    """

    name = "two-stage"

    def group(self, pair: Tuple[str, str], cache_dir: Path) -> List[Call]:
        context = self.context
        return [(lambda: context.two_stage(pair, cache_dir, REFINE_BUDGET),
                 functools.partial(context.two_stage_ok,
                                   budget=REFINE_BUDGET))]


class Served(Workload):
    """An in-process daemon on a Unix socket, :data:`CLIENTS` callers.

    Set-up starts the daemon over the trained store and the reference
    campaign cache and asks each pair once (the cold pass), so every
    measured request is a resident d(w)-memo hit.  Each caller has its
    own connection and thread and cycles through the pairs in seeded
    order; several callers start spread evenly over the cycle, so they
    rarely ask the same pair at once.  Unlike the other workloads, a
    phase stops at its deadline mid-cycle: a run holds many cycles, so a
    part-finished last cycle barely shifts the mix of pairs.
    """

    name = "served"
    server = None

    def prepare(self) -> None:
        from repro.serve import ReproServer, ResidentState

        context = self.context
        socket_path = context.work / "serve.sock"
        relative = os.path.relpath(socket_path)
        if len(relative) < len(str(socket_path)):
            socket_path = Path(relative)   # AF_UNIX paths are short
        state = ResidentState(cache_dir=context.reference_cache,
                              model_store_dir=context.store)
        self.server = ReproServer(state, socket_path=socket_path).start()
        self.address = str(socket_path)
        requests: List[Request] = []
        self._run_client(requests, context.order, 0, len(PAIRS),
                         float("inf"))
        if not all(r.ok for r in requests):
            raise SetupError("the daemon's cold pass answered a pair "
                             "differently from the one-shot reference")

    def _client(self):
        from repro.serve import ReproClient

        return ReproClient(self.address)

    def _run_client(self, requests: List[Request],
                    pairs: List[Tuple[str, str]], offset: int,
                    limit: float, deadline: float) -> None:
        """Ask ``pairs`` in turn from ``offset``, up to ``limit`` times.

        Stops at ``deadline`` after the request in progress, so that
        neither caller runs alone for longer than one request.
        """
        verify = self.context.one_shot_ok
        with self._client() as client:
            for number in itertools.count():
                if number >= limit or time.perf_counter() >= deadline:
                    return
                pair = pairs[(offset + number) % len(pairs)]
                _timed(requests, pair,
                       lambda: client.estimate(
                           baseline=pair[0], candidate=pair[1],
                           **SESSION, **ESTIMATE),
                       verify)

    def measure(self, seconds: float, pairs: List[Tuple[str, str]]
                ) -> Tuple[List[Request], Window]:
        requests: List[Request] = []
        window = Window()
        deadline = time.perf_counter() + seconds
        threads = [
            threading.Thread(
                target=self._run_client,
                args=(requests, pairs, number * len(pairs) // CLIENTS,
                      float("inf"), deadline),
                name=f"perfbench-client-{number}")
            for number in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return requests, window.close()

    def daemon_counters(self) -> Dict[str, float]:
        with self._client() as client:
            stats = client.stats()
        return {"dispatch_groups": stats["scheduler"]["dispatch_groups"],
                "coalesced": stats["scheduler"]["coalesced"],
                "hits": stats["panel_cache"]["hits"],
                "misses": stats["panel_cache"]["misses"]}

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()


WORKLOADS = {cls.name: cls for cls in (OneShot, Served, TwoStage)}
