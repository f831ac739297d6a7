"""Exact concordance invariants of 3-component links from Seifert-matrix
data: gamma sequences, the rational function packaging them, swap and
mixed-derivative transforms, beta invariants, equivalence modulo the shift
action, and Milnor-invariant residues.

The package imports nothing; each name has one path, its module's:
presentations, gamma sequences and h(t) in ``gamma``; ``Poly``, ``RatFn``
and ``Series`` in ``exactnum``; matrices in ``polylin``; the shift, swap,
mixed and beta operators in ``transforms``; verdicts in ``equivalence``;
Milnor residues in ``milnor``; documents in ``fileformat``; ``cli``."""
