"""Playing out process models into event logs.

The counterpart of the log-generation step of the paper's synthetic
evaluation [18]: sample traces from a model, attach case ids and
monotonically increasing synthetic timestamps, and collect an
:class:`~repro.logs.log.EventLog`.
"""

from __future__ import annotations

import random

from repro.exceptions import SynthesisError
from repro.logs.events import Trace
from repro.logs.log import EventLog
from repro.synthesis.process_tree import ProcessTree

#: Synthetic epoch all generated timestamps start from (2014-06-22, the
#: first day of the SIGMOD conference the paper appeared at).
BASE_TIMESTAMP = 1_403_395_200.0


def play_out(
    tree: ProcessTree,
    num_traces: int,
    rng: random.Random,
    name: str = "synthetic",
    case_prefix: str = "case",
    with_timestamps: bool = True,
    mean_step_seconds: float = 3_600.0,
) -> EventLog:
    """Sample *num_traces* traces from *tree* into an event log.

    Empty samples (a model whose choices can produce no events) are
    re-drawn a bounded number of times; a model that only produces empty
    traces raises :class:`SynthesisError`.
    """
    if num_traces < 1:
        raise SynthesisError(f"num_traces must be >= 1, got {num_traces}")
    log = EventLog(name=name)
    clock = BASE_TIMESTAMP
    for index in range(num_traces):
        activities = tree.sample(rng)
        redraws = 0
        while not activities:
            redraws += 1
            if redraws > 100:
                raise SynthesisError("model produces only empty traces")
            activities = tree.sample(rng)
        timestamps = None
        if with_timestamps:
            timestamps = []
            for _ in activities:
                clock += rng.expovariate(1.0 / mean_step_seconds)
                timestamps.append(clock)
        log.append(
            Trace.from_columns(activities, timestamps, case_id=f"{case_prefix}-{index}")
        )
    return log
