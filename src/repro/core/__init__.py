"""ECoST: the paper's primary contribution (§5-§6).

The Energy-efficient Co-locating and Self-Tuning pipeline:

1. **Classify** each unknown incoming application from a learning-
   period counter profile (:mod:`repro.analysis.classify`).
2. **Queue** it in a FIFO wait queue whose head takes every empty
   node; partner fills may leap the head and take no reservation
   (:mod:`repro.core.wait_queue`).
3. **Pair** it with the application already running on a node using
   the class-priority decision tree distilled from the Fig. 5 offline
   analysis (:mod:`repro.core.pairing`).
4. **Self-tune** the pair's six knobs (frequency, HDFS block size,
   mapper count — per application) with a self-tuning prediction
   technique: the lookup table LkT-STP or a machine-learning model
   MLM-STP (:mod:`repro.core.stp`), both backed by the configuration
   database built offline from the *training* applications
   (:mod:`repro.core.database`).

:class:`~repro.core.controller.ECoSTController` wires all of it into
the discrete-event cluster engine as an online scheduler.
"""

from repro.core.wait_queue import WaitQueue, QueuedApp
from repro.core.pairing import PairingPolicy, CLASS_PRIORITY
from repro.core.database import ConfigDatabase, DatabaseEntry
from repro.core.stp import (
    LkTSTP,
    MLMSTP,
    SelfTuningPredictor,
    TrainingDataset,
    build_offline,
)
from repro.core.controller import ECoSTController

__all__ = [
    "WaitQueue",
    "QueuedApp",
    "PairingPolicy",
    "CLASS_PRIORITY",
    "ConfigDatabase",
    "DatabaseEntry",
    "SelfTuningPredictor",
    "LkTSTP",
    "MLMSTP",
    "TrainingDataset",
    "build_offline",
    "ECoSTController",
]
