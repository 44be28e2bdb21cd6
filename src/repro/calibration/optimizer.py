"""Coordinate-descent bias optimisation (calibration step 14).

"An iterative procedure is used to determine the configuration words of
these blocks through the improvement of the measured Signal-to-Noise
Ratio (SNR) and Spurious Free Dynamic Range (SFDR)" — implemented as a
multi-resolution coordinate descent over the bias codes of Gmin, the
feedback DAC, the pre-amplifier and the comparator, driven purely by
measured performance.

This optimiser is deliberately *not* a generic black-box search: it
encodes designer knowledge (which fields to touch, in which order, from
which simulation-derived starting point).  That knowledge is exactly
the secret the paper argues an attacker lacks (Sec. VI-B.2).

The descent runs as a resumable state machine (:func:`descent_machine`)
so the calibration's lockstep driver can fuse many dies' descents into
shared engine batches; batching never changes what it decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator

from repro.receiver.config import ConfigWord

#: The bias fields step 14 iterates over, in calibration order, with the
#: width of each field.
STEP14_FIELDS: tuple[tuple[str, int], ...] = (
    ("gmin_code", 6),
    ("dac_code", 6),
    ("preamp_code", 5),
    ("comp_code", 5),
    ("bias_global", 3),
)


@dataclass
class OptimizerTrace:
    """Record of one objective evaluation."""

    config: ConfigWord
    score: float


@dataclass
class CoordinateDescentResult:
    """Outcome of the bias optimisation.

    Attributes:
        config: Best configuration found.
        score: Its objective value.
        n_evaluations: Number of oracle measurements spent.
        trace: Every (configuration, score) evaluated, in order.
    """

    config: ConfigWord
    score: float
    n_evaluations: int
    trace: list[OptimizerTrace] = field(default_factory=list)


def descent_machine(
    start: ConfigWord,
    fields: tuple[tuple[str, int], ...] = STEP14_FIELDS,
    passes: int = 2,
    initial_step: int = 8,
    batched: bool = True,
) -> Generator[list[ConfigWord], list[float], CoordinateDescentResult]:
    """The coordinate descent as a resumable state machine.

    The machine owns the accept logic and the memo, but not the
    measurements: it *yields* lists of candidate configurations to
    score and receives their scores via ``send``, so any driver — the
    sequential :func:`coordinate_descent` below, or the lockstep
    calibration driver fusing many dies' machines into shared engine
    batches — can advance it without changing what it decides.  The
    final :class:`CoordinateDescentResult` is the generator's return
    value.

    ``batched`` prefetches each hill-climb round's two neighbours as
    one list and replays the sequential accept logic over their
    scores.  The round evaluates both whatever it accepts, so no
    prefetched score goes unused, and the accepted path, trace and
    evaluation count are the unbatched descent's.  ``batched=False``
    reproduces the sequential objective protocol: every yield is a
    one-config list, one per unique evaluation.
    """
    cache: dict[int, float] = {}
    pending: dict[int, float] = {}
    trace: list[OptimizerTrace] = []

    def prefetch(candidates: list[ConfigWord]):
        if not batched:
            return
        todo: list[ConfigWord] = []
        words: list[int] = []
        for config in candidates:
            word = config.encode()
            if word in cache or word in pending or word in words:
                continue
            todo.append(config)
            words.append(word)
        if todo:
            scores = yield todo
            for word, score in zip(words, scores):
                pending[word] = score

    def evaluate(config: ConfigWord):
        word = config.encode()
        if word not in cache:
            if word in pending:
                cache[word] = pending.pop(word)
            else:
                cache[word] = (yield [config])[0]
            trace.append(OptimizerTrace(config=config, score=cache[word]))
        return cache[word]

    def neighbours(config: ConfigWord, name: str, code_max: int, step: int):
        code = getattr(config, name)
        return [
            config.replace(**{name: candidate})
            for candidate in (code - step, code + step)
            if 0 <= candidate <= code_max
        ]

    def step_schedule(width: int) -> list[int]:
        code_max = (1 << width) - 1
        schedule = []
        step = min(initial_step, max(code_max // 4, 1))
        while step >= 1:
            schedule.append(step)
            step //= 2
        return schedule

    current = start
    best_score = yield from evaluate(current)
    for _ in range(passes):
        for name, width in fields:
            code_max = (1 << width) - 1
            for step in step_schedule(width):
                improved = True
                while improved:
                    improved = False
                    code = getattr(current, name)
                    yield from prefetch(neighbours(current, name, code_max, step))
                    for candidate in (code - step, code + step):
                        if not 0 <= candidate <= code_max:
                            continue
                        trial = current.replace(**{name: candidate})
                        score = yield from evaluate(trial)
                        if score > best_score:
                            best_score = score
                            current = trial
                            improved = True
    return CoordinateDescentResult(
        config=current,
        score=best_score,
        n_evaluations=len(cache),
        trace=trace,
    )


def coordinate_descent(
    objective: Callable[[ConfigWord], float],
    start: ConfigWord,
    fields: tuple[tuple[str, int], ...] = STEP14_FIELDS,
    passes: int = 2,
    initial_step: int = 8,
) -> CoordinateDescentResult:
    """Maximise ``objective`` over the given configuration fields.

    Each field is hill-climbed with shrinking step sizes (8, 4, 2, 1 by
    default); the whole field list is swept ``passes`` times.  The
    objective is typically a measured SNR (optionally blended with an
    SFDR penalty) and is treated as expensive: results are memoised so
    a configuration is never measured twice.

    This is the in-process sequential driver over
    :func:`descent_machine`: it feeds each single candidate the machine
    yields to ``objective`` and sends the score back until the machine
    returns.  The calibration procedure drives a batched machine
    itself, fusing many dies' rounds into shared engine batches.
    """
    machine = descent_machine(
        start,
        fields=fields,
        passes=passes,
        initial_step=initial_step,
        batched=False,
    )
    try:
        candidates = next(machine)
        while True:
            candidates = machine.send([objective(c) for c in candidates])
    except StopIteration as stop:
        return stop.value
