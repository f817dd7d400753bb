"""The three workloads: set-up, one timed op, and the check of its output.

Each workload is a closed loop: one client in one thread sends its next op
only after the previous one returned.  Only the call into ``xview`` is
timed; generating inputs and checking outputs against the generator's model
happen outside the timed interval.  Functions are looked up on the ``xview``
modules at call time, so the tracer's wrappers see the benchmark's calls.
"""

from __future__ import annotations

import contextlib
import io
from time import perf_counter

import xview
import xview.cli

import gen


class OpFailed(Exception):
    """An op's output disagreed with the generator's model.

    ``count`` is how many of the op's cases failed, when that is known.
    """

    def __init__(self, message: str, count: int = 0) -> None:
        super().__init__(message)
        self.count = count


class Workload:
    """Defaults shared by the workloads."""

    op_size = 1  # ops counted as failed when an op raises
    untraced = staticmethod(contextlib.nullcontext)  # the runner may replace it

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def finish(self) -> None:
        """Check the end state against the model, outside timing."""


def _names(parent) -> tuple[str, ...]:
    return tuple(c.text for c in parent.children or [])


def _view_rows(tree) -> list[tuple]:
    """(authors, title, uName, profs) of every wrapper, read off the tree."""
    rows = []
    for use in tree.children or []:
        auths, title, uni, profs = use.children
        rows.append((_names(auths), title.text, uni.text, _names(profs)))
    return rows


class JoinSession(Workload):
    """Evals and updates interleaved on one live two-document store."""

    name = "join-session"

    def setup(self) -> None:
        books_xml, subj_xml, model = gen.join_documents(self.seed)
        self.store = xview.DocumentStore()
        self.store.add("bkInf.xml", xview.parse_document(books_xml))
        self.store.add("subjInf.xml", xview.parse_document(subj_xml))
        self.view = xview.parse_view_def(gen.JOIN_VIEW)
        self.session = gen.JoinSession(self.seed, model)
        self.rows = model.expected_rows()

    def op(self) -> tuple[str, float, int]:
        """Run one op; return (op type, seconds in xview, ops done)."""
        kind = self.session.next_op()
        if kind == "eval":
            start = perf_counter()
            instance = xview.evaluate_view(self.view, self.store)
            took = perf_counter() - start
            if _view_rows(instance.tree) != self.rows:
                raise OpFailed("view rows differ from the model")
            return "eval", took, 1

        upd = self.session.next_update()
        start = perf_counter()
        outcome = xview.translate(self.view, xview.parse_update(upd.text))
        edits = None
        if isinstance(outcome, xview.Translated):
            edits = xview.apply_update(outcome.statement, self.store)
        took = perf_counter() - start
        if isinstance(outcome, xview.Rejected):
            got = f"reject:{outcome.reason.value}"
        else:
            got = outcome.case.value
        if got != upd.expect:
            raise OpFailed(f"expected {upd.expect}, got {got}")
        if edits is not None:
            if len(edits) != upd.edits:
                raise OpFailed(f"expected {upd.edits} edits, got {len(edits)}")
            self.session.commit(upd)
            self.rows = self.session.model.expected_rows()
        return "update", took, 1

    def finish(self) -> None:
        instance = xview.evaluate_view(self.view, self.store)
        if _view_rows(instance.tree) != self.rows:
            raise OpFailed("final view differs from the model")


class DeletionVerify(Workload):
    """One verify of a T4 root deletion per op, each on a fresh document."""

    name = "deletion-verify"
    POOL = 32  # documents generated and parsed ahead, per refill

    def setup(self) -> None:
        self.view = xview.parse_view_def(gen.DELETE_VIEW)
        self.update = xview.parse_update(gen.DELETE_UPDATE)
        outcome = xview.translate(self.view, self.update)
        if not isinstance(outcome, xview.Translated) or outcome.case.value != "T4":
            raise OpFailed(f"the deletion should translate as T4, got {outcome}")
        self.translated = outcome
        self.rng = gen.deletion_rng(self.seed)
        self.pool: list[tuple] = []
        self._refill()

    def _refill(self) -> None:
        for _ in range(self.POOL):
            text, matches = gen.deletion_document(self.rng)
            store = xview.DocumentStore()
            store.add("d", xview.parse_document(text))
            self.pool.append((store, matches))
        self.pool.reverse()

    def op(self) -> tuple[str, float, int]:
        if not self.pool:
            with self.untraced():
                self._refill()
        store, matches = self.pool.pop()
        out = self.translated
        start = perf_counter()
        report = xview.verify_translation(
            self.view, self.update, out.statement, store, out.case
        )
        took = perf_counter() - start
        if not (report.precise and all(ok for _n, ok in report.lemma_checks)):
            raise OpFailed(f"verification failed: {report.to_json()}")
        with self.untraced():
            log = xview.apply_update(out.statement, store)
            rows = xview.evaluate_view(self.view, store).tree.children or []
        if len(log) != matches:
            raise OpFailed(f"expected {matches} edits, got {len(log)}")
        if len(rows) != gen.ITEMS - matches or any(
            e.children[0].text != "2" for e in rows
        ):
            raise OpFailed("surviving rows differ from the model")
        return "verify", took, 1


class FuzzMix(Workload):
    """Batches of ``xview fuzz``, run in process; one case is one op."""

    name = "fuzz-mix"
    op_size = gen.FUZZ_BATCH
    # Set-up is one fixed warm-up batch, the same for every workload seed, so
    # that the first calls' lazy costs land outside the timed ops.
    WARMUP_SEED, WARMUP_COUNT = 7, 50

    def _batch(self, batch_seed: int, count: int) -> float:
        """Seconds one in-process ``xview fuzz`` call took; raise if it failed."""
        argv = ["fuzz", "--seed", str(batch_seed), "--count", str(count)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = perf_counter()
            code = xview.cli.main(argv)
            took = perf_counter() - start
        lines = out.getvalue().split("\n")
        hist = dict(line.rsplit(": ", 1) for line in lines if ": " in line)
        failures = int(hist.pop("failures", count))
        total = sum(int(v) for v in hist.values())
        if total != count:
            raise OpFailed(f"histogram sums to {total}, not {count}")
        if failures or code != 0:
            raise OpFailed(f"{failures} fuzz failures (exit {code})", failures)
        return took

    def setup(self) -> None:
        self._batch(self.WARMUP_SEED, self.WARMUP_COUNT)
        self.seeds = gen.fuzz_seeds(self.seed)

    def op(self) -> tuple[str, float, int]:
        took = self._batch(next(self.seeds), gen.FUZZ_BATCH)
        return "fuzz_case", took, gen.FUZZ_BATCH


WORKLOADS = {w.name: w for w in (JoinSession, DeletionVerify, FuzzMix)}
