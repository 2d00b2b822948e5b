"""Cardinality encodings used by the SAT-MapIt CNF construction.

The mapping formulation needs two cardinality shapes:

* *exactly-one* over the literal set of each DFG node (constraint C1): one
  at-least-one clause plus an at-most-one, and
* *at-most-one* over each (PE, cycle) slot (constraint C2).

Three at-most-one encodings are available.  ``pairwise`` is the textbook
quadratic encoding the paper describes (``¬a ∨ ¬b`` for every pair);
``sequential`` (Sinz 2005) chains ``n - 1`` register variables in
``3n - 4`` clauses; ``commander`` (Klieber & Kwon 2007) recurses over groups
of four under one commander variable each.  Groups of at most four literals
always use ``pairwise``.  The native emission kernel (``enc_*`` in
``_cdcl.c``) builds all of them; :class:`AMOEncoding` names the choice.
"""

from __future__ import annotations

from enum import Enum


class AMOEncoding(str, Enum):
    """Available at-most-one encodings."""

    PAIRWISE = "pairwise"
    SEQUENTIAL = "sequential"
    COMMANDER = "commander"
    #: Pick per constraint group: pairwise up to ``AUTO_PAIRWISE_LIMIT``
    #: literals, sequential above.  On the CDCL core's implication lists a
    #: pairwise clause is a single-read implication with no auxiliary
    #: counter chain, which cuts unit-propagation volume several-fold; the
    #: quadratic clause count only overtakes that win on very wide groups.
    AUTO = "auto"


#: Group width where :data:`AMOEncoding.AUTO` switches from the quadratic
#: pairwise form to the sequential counter.  Chosen empirically on the
#: benchmark suite: pairwise still wins at ~176-literal groups (gsm on the
#: 4x4 mesh); the cap guards the very wide groups of large fabrics at high
#: slack where n^2 clause counts would dominate encode time and memory.
AUTO_PAIRWISE_LIMIT = 200
