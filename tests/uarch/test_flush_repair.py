"""Predictor repair on a load-violation flush.

A violation flush squashes the victim block and everything younger, then
restores the predictor from the checkpoint of the block just older than
the victim: the surviving window tail.  Block uids are never reused, so
after an earlier flush that tail need not be uid ``victim - 1``.  Fuzz
seed 183 at ``tcc`` hits exactly that: at cycle 229 the victim is uid 20
and the tail is uid 16.
"""

import pytest

from repro.compiler import compile_tir
from repro.fuzz.gen import generate
from repro.uarch.config import TripsConfig
from repro.uarch.proc import TripsProcessor


def _violation_flushes(program, fast_path):
    """Run ``program``; per violation flush, the (victim uid, tail uid,
    tail checkpoint, checkpoints restored during the flush)."""
    proc = TripsProcessor(program, config=TripsConfig(fast_path=fast_path))
    flushes = []
    restored = []
    restore = proc.predictor.restore

    def spy_restore(checkpoint):
        restored.append(checkpoint)
        return restore(checkpoint)

    flush_from = proc._flush_from

    def spy_flush_from(victim, refetch, reason, t):
        older = [b for b in proc.window if b.uid < victim.uid]
        tail = older[-1] if older else None
        del restored[:]
        flush_from(victim, refetch, reason, t)
        prediction = tail.pred_for_next if tail else None
        flushes.append((victim.uid, tail.uid if tail else None,
                        prediction.checkpoint if prediction else None,
                        list(restored)))

    proc.predictor.restore = spy_restore
    proc._flush_from = spy_flush_from
    proc.run()
    return flushes


@pytest.fixture(scope="module")
def seed183():
    return compile_tir(generate(183), level="tcc").program


@pytest.mark.parametrize("fast_path", [True, False],
                         ids=["fast", "full_scan"])
def test_violation_flush_restores_the_surviving_tail(seed183, fast_path):
    flushes = _violation_flushes(seed183, fast_path)
    gapped = [f for f in flushes if f[1] is not None and f[1] != f[0] - 1]
    assert [(victim, tail) for victim, tail, _, _ in gapped] == [(20, 16)]
    for _, _, checkpoint, restored in flushes:
        if checkpoint is not None:
            assert restored == [checkpoint]

