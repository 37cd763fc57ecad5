"""Command-line front end: compute polynomials and coefficients, run the
named verification suites, and emit canonical JSON on standard output.

Exit codes: 0 success (all checks pass), 1 verification failure (a check
that fails, or that evaluated no instance, or a suite with no check), 2 usage
error (malformed signatures, non-interlacing pairs, mu outside the
matrix-element window, k < 1, --vars < 1, verify sizes below their minimum,
sizes outside an envelope below, unknown suite), 3 internal error (any
other exception, reported as one line).

Size envelopes, checked before any computation.  Each is one row of
`_ENVELOPE`, {number of variables: bound}, where a bound holds at every k
or is a tuple of bounds at k = 1, 2, ...; a larger k, and a number of
variables with no entry, are outside.  In the order of the table:
- `poly` takes at most 10 variables, and for n variables a degree d =
  |lambda| - n*lambda_n (lambda shifted to lambda_n = 0) up to a bound per
  method (rows `poly --method eigen|branch|gt`; for n = 2, 3, 4, 5: eigen
  25, 18, 16, 12, branch 39, 18, 15, 14, gt 39, 18, 14, 12).  Each bound
  is the largest d at which the slowest signatures of the method took at
  most 20 s on a 2-vCPU Xeon (the shapes (d, 0, ...), (d-1, 1, 0, ...),
  (d-2, 2, 0, ...) and (d-3, 3, 0, ...), the slowest in full sweeps of
  smaller d); at d + 1 one took longer, or all together over 40 s.  The
  branch and gt bounds for n = 3, 4, 5 were measured with the sums over
  dominant keys only (at d + 1, branch: 47, 47 and 62 s together, gt: 49
  and 44 s together and 24 s for (10, 3, 0, 0, 0)).  The eigen bounds for
  n = 3, 4 were measured with each solve step reduced once: the four
  shapes took 12.0-12.2, 6.4-7.1, 4.8-5.0 and 2.7-2.9 s at n = 3, d = 18
  and 15.1-17.7, 5.6-7.3, 6.2-7.0 and 5.8-6.0 s at n = 4, d = 16 (two
  runs); at d + 1, 21.7 s for (19, 0, 0) and 52 s together, and 37.1 s for
  (17, 0, 0, 0) and 94 s together.  The other bounds are older.  In 11
  variables eigen took 12 s already at d = 0.
- `psi` takes at most 10 variables and a spread s = lambda_1 - lambda_n up
  to a bound per n (one variable: any s and k).  Without --k (row `psi
  --generic`) the bounds for n = 2, ..., 10 are 104, 96, 80, 64, 60, 52,
  48, 44, 44.  With --k (row `psi --k`) k is at most 8192, and s is bounded
  at k = 2 and then for k up to 8, 32, 128, 512, 2048 and 8192 (n = 2:
  8192, 8192, 832, 160, 68, 31, 15); at k = 1 the value is 1.  Each bound
  is the largest s at which `psi` took at most 20 s (17-20 s at the bounds)
  on lambda evenly spaced from s down to 0, each mu_i in the middle of its
  gap, on a 2-vCPU Xeon: one fresh process per size, two searches at a
  time, s doubled from 8 up to 8192 and bisected until the passing and
  failing s were within 1/8; with --k, at k = 2, 8, 32, ..., each k from
  the bound of the last.  The searches stopped at s = 8192 and k = 8192,
  so those caps are not where a run got slow (n = 2: 3.9 s at k = 32768,
  s = 5).  They predate the balanced product tree in binomial_ratio
  (psi_branch((80, 0), (40,)): 5.0-6.3 s before, 1.5-1.6 s after), so
  they are conservative; they are not measured again.
- `matelt` takes a lambda of at most 10 variables.  With one variable
  every route is one term, and k is at most 500: the shift-path expansion
  recurses k - 1 deep, and k = 1000 exceeded Python's default recursion
  limit.  For n >= 2 variables, k and the spread s = lambda_1 - lambda_n
  are bounded for every route (per n, the largest s at k = 1, 2, ...;
  with one variable s is 0 at k <= 500).  For n = 2: s <= 8192 at
  k <= 5, then 5120, 3840, 2400, 1650, 1340, 753, 611, 496, 496, 372, 127,
  35, 21, 14 at k = 6, ..., 19; n = 3: 8192, 3328, 1040, 357, 244, 198,
  123, 30, 22; n = 4: 8192, 704, 264, 148, 74, 24; n = 5: 8192, 352, 88,
  35, 16; n = 6: 8192, 192, 42, 19; n = 7: 8192, 80, 23; n = 8: 8192, 52,
  22; n = 9: 8192, 30, 15; n = 10: 8192, 16.
  The k caps (19, 9, 6, 5, 4, 3, 3, 3, 2 for n = 2, ..., 10) are the
  largest k at which the mat_elt route, which expands 2^{(n-1)(k-1)}
  shift paths, took at most 20 s on lambda = (3, 1, 0, ...), mu = (2, 0,
  ...) on a 2-vCPU Xeon (16.5, 4.9, 3.4, 7.9, 4.1, 0.6, 2.8, 14.0 and
  0.2 s).  At k + 1 it took 39.6, 23.4 and 31.5 s for n = 2, 3, 4, and for
  n = 5, ..., 10 it ran out of a 2 GiB address-space limit after 19-30 s;
  (0, 0, 0) at n = 3, k = 10 took 23.1 s too.
  Each spread bound is the largest s at which every route took at most
  20 s on lambda evenly spaced from s down to 0, each mu_i at 0.6 of its
  gap [lambda_{i+1}, lambda_i] (interior mu are the slow ones: on
  (1000, 500, 0) at k = 3, cg_sq took 7.6-14.5 s over five interior mu
  and 0.2 s at mu = (1000, 500)).  Per n the search ran k up from 1,
  started at the bound of k - 1 (at 8192 for k = 1, where it stopped, so
  the bounds of 8192 are not where a run got slow), halved s until a run
  passed and bisected until the passing and failing s were within 1/8,
  two searches at a time on a 2-vCPU Xeon.  cg_sq set the bounds at
  small k, mat_elt at large k; at the next s tried, the slowest route
  took over 20 s.  cg_sq's time jumps rather than grows near its bounds
  (n = 6, k = 3: 7.0 s at s = 42, 26.5 s at s = 45).
- `trace` (with or without --ratio) takes at most 6 variables, k up to 8,
  6, 6, 3 and 2 for n = 2, ..., 6, and a degree d = |lambda| - n*lambda_n
  up to a bound per n and k (for k = 1, 2, ...:
  n = 2: 40 at every k; n = 3: 30, 30, 30, 25, 21, 18; n = 4: 20, 22,
  13, 9, 5, 3; n = 5: 16, 11, 4; n = 6: 12, 3).  Each bound is the largest
  d at which `trace --ratio` took at most 20 s on each of (d, 0, ...),
  (d-1, 1, 0, ...), (d-2, 2, 0, ...) and (d-3, 3, 0, ...) and at most 40 s
  on all of them together, on a 2-vCPU Xeon (doubling d, then bisecting).
  The search stopped at d = 40, 30, 20, 16 and 12 for n = 2, ..., 6, so
  the bounds equal to those caps are not where a run got slow.  The rows
  for n = 4 and 5 were timed again with one reduction per lattice state
  and the EK division over one common denominator (trace_ratio called
  directly, one process per shape), from the old bound + 1 up, one d at a
  time, until a run failed the rule.  The shapes took together, for
  n = 4: at k = 2, 29.4, 35.3 and 39.0 s at d = 20, 21, 22 and 41.1 s at
  23; at k = 3, 26.7 and 34.9 s at d = 12, 13 and 41.4 s at 14; at k = 4,
  25.1 and 36.2 s at d = 8, 9 and 53.1 s at 10; at k = 5, 23.0 s at d = 5
  and 42.3 s at 6; at k = 6, 23.1 s at d = 3 and 20.1 s on (4, 0, 0, 0)
  alone at 4; for n = 5: at k = 2, 20.9, 30.3 and 38.5 s at d = 9, 10,
  11 and 56.2 s at 12; at k = 3, 29.0 s at d = 4 and 44.1 s at 5.  At
  k = 1, d + 1 took 0.4 s (n = 4) and 0.9 s (n = 5) together; those rows
  stay at the search caps.  Measured before: at d = 0, k = 7 in 4
  variables took 34 s, k = 4 in 5 variables did not finish in 45 s, and
  k = 2 in 7 variables took 52 s.
  The k caps for n = 2 and 3 are where the sweep stopped, too (at d = 0
  and k = 8, n = 2 took 0.14 s and n = 3 3.3 s).  One variable has no
  links: every k and d.
- `verify --suite trace` (also through `--suite all`) computes the traces
  of every partition of degree up to d = min(--maxdeg, 3), so it takes the
  `trace` envelope at that d: in 5 variables k <= 3, in 6 variables
  k <= 2, and at most 6 variables.
  Outside it, at --n 6 --k 3, --n 7 --k 2 and --n 5 --k 4, the suite ran
  past 40 s; inside it, at --n 4 --k 6 (d = 3 since that row was raised),
  it took 61 s.
- `verify` runs the restriction suites in n*l variables only for
  n*l <= 5 (res-intertwine) and n*l <= 10 (res-diff), also through
  `--suite all`.  At the default samples and maxdeg and seeds 0-3, the
  slowest res-intertwine run inside took 4.1 s, while at n*l = 6 it took
  47-54 s at seed 0 and did not finish in 120 s at (n, l) = (3, 2),
  seed 1; res-diff took 5-14 s at n*l = 10 and did not finish in 100 s at
  (4, 3).  Their time grows with --samples.
- `verify --suite matelt-routes` (also through `--suite all`) takes at
  most 10 variables and k up to a bound per n (for n = 1, ..., 10: 500
  (the `matelt` bound), 13, 6, 4, 3, 2, 2, 1, 1, 1), the largest k at
  which the suite took at most 20 s at the default --maxdeg 4 on a 2-vCPU
  Xeon.  The rows for n = 3, ..., 7 were raised once `intertwiner._limit`
  dropped dead terms over the whole product (one size per fresh process,
  two to four runs each): at the bounds the suite took 8.5-10.6,
  10.6-15.2, 13.3-16.1, 3.2-3.6 and 10.8-15.1 s for n = 3, ..., 7, and
  at k + 1 40.8-47.8 s for n = 3 and over 50 s for n = 4, ..., 7; at
  k = 2, n = 8, 9 and 10 took over 50 s as well (0.1 s at k = 1).  The
  n = 2 row was not raised then (26.9-41.8 s at k = 15), and was later
  lowered from 14 to 13: at k = 14 the suite took 16.4-20.9 s then and
  18.8 s once after, and 12.3-15.2 s in five fresh processes with one
  other search running, where k = 13 took 6.7-7.9 s.  Its time grows with
  --maxdeg.
- `verify --suite adjoint` (also through `--suite all`) takes l <= 26 in
  1 or 2 variables at every k (one index dimension has no pair factors,
  so k does not enter the run), and in n = 3, ..., 7 variables k up to 8,
  8, 8, 1 and 1 and l up to a bound per n and k (for k = 1, 2, ...:
  n = 3: 13, 10, 10, 9, 9, 9, 9, 9; n = 4: 6, then 3 up to k = 8; n = 5:
  3, then 1 up to k = 8; n = 6: 2; n = 7: 1).  For an
  (l, k) the largest n is the largest row admitting l at k.  Each bound
  is the largest l at which the suite took at most 20 s at the default
  --samples 10 and seeds 0 and 1 on a 2-vCPU Xeon, searched from l = 1
  (from 20 in 1 or 2 variables) per n and k: inside, the slowest runs
  took 19.9 s at (n, l, k) = (3, 13, 1) and 19.8 s at (4, 3, 4); at l + 1
  one seed took over 20 s in every row (20.5 s at (3, 10, 4), 21.9 s at
  (2, 27, 2), most over 25 s, where the search stopped them).  At l = 1,
  n = 6 and 7 took over 25 s at k = 2, and n = 8 at k = 1.  The sweep
  stopped at k = 8, so the k caps for n = 3, 4, 5 are not where a run got
  slow.  The time grows linearly with --samples (one summation-by-parts
  check per sample); --maxdeg does not enter.
- `verify --suite macops-eigen` and `--suite constructor-agreement` (also
  through `--suite all`) take at most 10 variables, as `poly` does, and
  --maxdeg up to a bound per n (for n = 1, ..., 10: macops-eigen 64, 19,
  13, 11, 10, 9, 8, 8, 8, 8; constructor-agreement 64, 21, 13, 11, 10,
  10, 9, 9, 9, 9), the largest --maxdeg at which the suite took at most
  20 s on a 2-vCPU Xeon, one run per size and two searches at a time,
  doubling --maxdeg from 4, then bisecting.  At the bounds for n = 2, ...,
  10, macops-eigen took 12.4, 9.9, 13.7, 15.7, 14.3, 8.3, 9.7, 13.5 and
  19.0 s, constructor-agreement 19.7, 9.7, 9.4, 8.6, 12.9, 7.0, 8.2, 7.9
  and 11.4 s; one above them, macops-eigen took 20.1 s at n = 3 and
  20.7 s at n = 7, constructor-agreement 20.8, 23.0, 20.1 and 23.4 s at
  n = 3, 4, 7 and 8, and every other run over 25 s, where the search
  stopped it.  For n = 1 the search stopped at 64 (0.2 s), so that bound
  is not where a run got slow.  Neither suite reads --samples.
- `verify --suite daha-relations` (also through `--suite all`) takes at
  most 5 variables, and `--suite spherical-macdonald` at most 5, with
  --maxdeg up to 64 for n <= 4 and 24 for n = 5, each measured at the
  default --samples 10 on a 2-vCPU Xeon.  With the symmetrizer as a
  product of coset sums, daha-relations took 4.4-14.2 s in 5 variables
  (one fresh process per run, seeds 0-3 at --l 1, 10 and 100, seeds 0-1
  at --l 1000; 0.4-2.5 s at --samples 1) and 1.1-1.8 s in 4.  With its
  coset sums over one common denominator, 6 variables took 10.6-42.2 s
  (seeds 0-3; over 20 s at seeds 0 and 3), and with one final reduction
  per distinct output value 34.9, 12.6, 9.3 and 21.1 s at seeds 0-3
  (40.0, 16.5, 10.6 and 27.7 s before, in the same session), so the row
  stays at 5.  It does not read --maxdeg.
  spherical-macdonald draws parts up to max(1, --maxdeg // n), so it runs
  the same samples at every --maxdeg below 2n: in 6 variables it took
  22.4 s at --maxdeg 4 and 20.0 s at 0.  In 5 variables --maxdeg 24 took
  7.7-13.0 s over seeds 0-3, and 26, 27 and 28, which draw the same parts,
  took 19.6, 17.4 and 20.2 s at seed 0; in 4 variables --maxdeg 64 took
  3.9-9.5 s over seeds 0-3, and the search stopped there (at 64 for
  n <= 3 too, under 0.3 s).  The time of both suites grows with
  --samples, which is not bounded.
- `verify --suite symmetry` and `--suite branch` (also through `--suite
  all`) take at most 10 variables, k up to a cap per n and --maxdeg up to
  a bound per n and k.  The caps for n = 1, ..., 10: symmetry any k (in
  one variable it does not read k), 84, 66, 54, 47, 43, 40, 38, 35, 33;
  branch 131, 96, 38, 21, 14, 10, 7, 6, 5, 4.  The bounds at k = 1:
  symmetry 64, 19, 13, 9, 8, 7, 6, 6, 5, 5; branch 64, 21, 14, 12, 11, 10,
  10, 9, 9, 9; they fall with k, to 0 at the caps for n >= 2 (`_ENVELOPE`
  lists every k).  Each bound is the largest --maxdeg at which the suite took
  at most 20 s on a 2-vCPU Xeon, one run per size in a fresh process,
  two searches at a time.  At k = 1 --maxdeg was doubled from 4, then
  bisected.  From there the search kept the bound while k, in doubling
  steps, still passed, bisected to the last k that did, and at the next
  k lowered --maxdeg (in doubling steps, then bisecting), on the
  assumption that the time grows with k and with --maxdeg; a cap is the
  last k at which --maxdeg 0 passed.  The rows for n = 2 at k <= 24
  (branch) and k <= 18 (symmetry), first searched while other work ran,
  were measured again with only the searches running, raising --maxdeg
  by one until a run took over 20 s.  At the k = 1 bounds the suites took 15.6 s (symmetry) and
  18.3 s (branch) in 2 variables and 6.1-17.4 s and 6.7-18.2 s in 3 to
  10; at one above, branch took 20.7-20.9 s at n = 3, 8 and 10, and every
  other run over 21 s, where the search stopped it.  At the caps
  --maxdeg 0 took 9.2-19.0 s; at k + 1, symmetry took 20.4-20.9 s at n =
  3, 5, 6 and 10, and every other run over 21 s.  In one variable
  the search stopped at --maxdeg 64 (0.35 s for symmetry at k = 1 and
  0.21 s at k = 10^6; 0.15 s for branch at k = 1), and branch's cap there
  was set by psi_qnum's [k-1]! (19.1 s at k = 131).  At large k the time
  went to the q-factorials of psi_qnum and symmetry_check, which
  qfall_ratio now cancels with no gcd (branch at n = 2, k = 96, --maxdeg 0:
  13.1-19.2 s before, 0.2-0.3 s after), so the rows are conservative; they
  are not measured again.  Neither suite reads --samples.
- `verify --suite qfield-axioms` has no envelope (`_UNBOUNDED_SUITES`):
  it reads only --samples and --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import intertwiner, macops, suites
from .combinat import in_window, interlaces, parse_signature
from .sympoly import npoly_to_json, sym_to_json


class _UsageError(Exception):
    pass


# The size envelopes, one row per verb or suite (see the module
# docstring).  _ANY is no bound.
_ANY = math.inf
_ENVELOPE = {
    "poly --method eigen": {1: 0, 2: 25, 3: 18, 4: 16, 5: 12, 6: 11, 7: 11, 8: 10, 9: 10, 10: 9},
    "poly --method branch": {1: 0, 2: 39, 3: 18, 4: 15, 5: 14, 6: 9, 7: 8, 8: 8, 9: 7, 10: 6},
    "poly --method gt": {1: 0, 2: 39, 3: 18, 4: 14, 5: 12, 6: 8, 7: 7, 8: 6, 9: 6, 10: 5},
    "psi --generic": {1: _ANY, 2: 104, 3: 96, 4: 80, 5: 64, 6: 60, 7: 52, 8: 48, 9: 44, 10: 44},
    "psi --k": {
        1: _ANY,
        2: (_ANY,) + (8192,) * 7 + (832,) * 24 + (160,) * 96 + (68,) * 384 + (31,) * 1536 +
           (15,) * 6144,
        3: (_ANY, 8192) + (1024,) * 6 + (160,) * 24 + (75,) * 96 + (29,) * 384 + (15,) * 1536 +
           (6,) * 6144,
        4: (_ANY, 8192) + (512,) * 6 + (104,) * 24 + (52,) * 96 + (22,) * 384 + (10,) * 1536 +
           (5,) * 6144,
        5: (_ANY, 2816) + (165,) * 6 + (82,) * 24 + (35,) * 96 + (14,) * 384 + (6,) * 1536 +
           (5,) * 6144,
        6: (_ANY, 2048) + (120,) * 6 + (56,) * 24 + (24,) * 96 + (11,) * 384 + (7,) * 1536 +
           (6,) * 6144,
        7: (_ANY, 1024) + (80,) * 6 + (45,) * 24 + (20,) * 96 + (10,) * 384 + (7,) * 1536 +
           (6,) * 6144,
        8: (_ANY, 768) + (72,) * 6 + (36,) * 24 + (20,) * 96 + (10,) * 384 + (8,) * 1536 +
           (7,) * 6144,
        9: (_ANY, 288) + (72,) * 6 + (29,) * 24 + (13,) * 96 + (10,) * 384 + (9,) * 1536 +
           (8,) * 6144,
        10: (_ANY, 320) + (55,) * 6 + (27,) * 24 + (14,) * 96 + (10,) * 384 + (9,) * 7680,
    },
    "matelt": {
        1: (0,) * 500,
        2: (8192, 8192, 8192, 8192, 8192, 5120, 3840, 2400, 1650, 1340, 753, 611, 496, 496, 372,
            127, 35, 21, 14),
        3: (8192, 3328, 1040, 357, 244, 198, 123, 30, 22),
        4: (8192, 704, 264, 148, 74, 24),
        5: (8192, 352, 88, 35, 16),
        6: (8192, 192, 42, 19),
        7: (8192, 80, 23),
        8: (8192, 52, 22),
        9: (8192, 30, 15),
        10: (8192, 16),
    },
    "trace": {
        1: _ANY,
        2: (40,) * 8,
        3: (30, 30, 30, 25, 21, 18),
        4: (20, 22, 13, 9, 5, 3),
        5: (16, 11, 4),
        6: (12, 3),
    },
    "res-intertwine": dict.fromkeys(range(1, 6), _ANY),
    "res-diff": dict.fromkeys(range(1, 11), _ANY),
    "matelt-routes": {1: 500, 2: 13, 3: 6, 4: 4, 5: 3, 6: 2, 7: 2, 8: 1, 9: 1, 10: 1},
    "adjoint": {
        1: 26,
        2: 26,
        3: (13, 10, 10, 9, 9, 9, 9, 9),
        4: (6,) + (3,) * 7,
        5: (3,) + (1,) * 7,
        6: (2,),
        7: (1,),
    },
    "macops-eigen": {1: 64, 2: 19, 3: 13, 4: 11, 5: 10, 6: 9, 7: 8, 8: 8, 9: 8, 10: 8},
    "constructor-agreement": {1: 64, 2: 21, 3: 13, 4: 11, 5: 10, 6: 10, 7: 9, 8: 9, 9: 9, 10: 9},
    "daha-relations": dict.fromkeys(range(1, 6), _ANY),
    "spherical-macdonald": {1: 64, 2: 64, 3: 64, 4: 64, 5: 24},
    "symmetry": {
        1: 64,
        2: ((19, 19, 17, 17, 16, 16, 15, 15, 13, 13, 12, 12, 11, 11, 9, 8, 8, 7, 6, 6) + (5,) * 5 +
            (4,) * 3 + (3,) * 12 + (2,) * 3 + (1,) * 22 + (0,) * 19),
        3: ((13, 11) + (10,) * 3 + (9, 9) + (7,) * 4 + (6, 6, 5, 5) + (4,) * 6 + (3,) + (2,) * 11 +
            (1,) * 10 + (0,) * 23),
        4: ((9,) + (8,) * 3 + (7,) * 3 + (6, 6) + (5,) * 3 + (4, 4) + (3,) * 6 + (2,) * 4 +
            (1,) * 12 + (0,) * 18),
        5: ((8,) + (7,) * 3 + (6,) * 3 + (5, 5) + (4,) * 3 + (3, 3) + (2,) * 6 + (1,) * 12 +
            (0,) * 15),
        6: (7,) + (6,) * 4 + (5, 5) + (4,) * 3 + (3, 3) + (2,) * 7 + (1,) * 7 + (0,) * 17,
        7: (6,) * 4 + (5,) * 3 + (4, 4) + (3,) * 3 + (2,) * 5 + (1,) * 6 + (0,) * 17,
        8: (6, 6) + (5,) * 4 + (4, 4) + (3,) * 3 + (2,) * 3 + (1,) * 6 + (0,) * 18,
        9: (5,) * 5 + (4, 4) + (3,) * 3 + (2,) * 3 + (1,) * 6 + (0,) * 16,
        10: (5,) * 3 + (4,) * 3 + (3,) * 3 + (2, 2) + (1,) * 7 + (0,) * 15,
    },
    "branch": {
        1: (64,) * 127 + (62,) * 4,
        2: ((21,) * 3 + (20, 20, 21) + (20,) * 3 + (19,) * 3 +
            (18, 17, 17, 16, 16, 15, 13, 11, 10, 10, 9, 9) + (7,) * 8 + (6, 5) + (4,) * 4 +
            (3,) * 11 + (2,) * 8 + (1,) * 17 + (0,) * 22),
        3: ((14,) * 5 + (12, 11, 11, 8, 7, 7, 6, 6, 5, 4) + (3,) * 5 + (2,) * 3 + (1,) * 4 +
            (0,) * 11),
        4: (12, 12, 11, 10, 9, 7, 6, 5, 4, 3, 3, 2, 2) + (1,) * 3 + (0,) * 5,
        5: (11, 10, 9, 7, 6, 4, 3, 3, 2, 1, 1) + (0,) * 3,
        6: (10, 10, 7, 6, 3, 3, 1, 1, 0, 0),
        7: (10, 9, 6, 4, 2, 1, 0),
        8: (9, 8, 4, 3, 0, 0),
        9: (9, 7, 3, 1, 0),
        10: (9, 5, 2, 0),
    },
}
# How the arguments of each bounded suite give (variables, k, size), and
# the name of the size, in the order the suites are checked.
_SUITE_SIZE = {
    "res-intertwine": ("--samples", lambda a: (a.n * a.l, a.k, a.samples)),
    "res-diff": ("--samples", lambda a: (a.n * a.l, a.k, a.samples)),
    "matelt-routes": ("--k", lambda a: (a.n, a.k, a.k)),
    "adjoint": ("--l", lambda a: (a.n, a.k, a.l)),
    # suite_trace runs the partitions of degree up to min(--maxdeg, 3)
    "trace": ("min(--maxdeg, 3)", lambda a: (a.n, a.k, min(a.maxdeg, 3))),
    "macops-eigen": ("--maxdeg", lambda a: (a.n, a.k, a.maxdeg)),
    "constructor-agreement": ("--maxdeg", lambda a: (a.n, a.k, a.maxdeg)),
    "daha-relations": ("--samples", lambda a: (a.n, a.k, a.samples)),
    "spherical-macdonald": ("--maxdeg", lambda a: (a.n, a.k, a.maxdeg)),
    "symmetry": ("--maxdeg", lambda a: (a.n, a.k, a.maxdeg)),
    "branch": ("--maxdeg", lambda a: (a.n, a.k, a.maxdeg)),
}
# The suites with no envelope: qfield-axioms reads only --samples and --seed.
_UNBOUNDED_SUITES = ("qfield-axioms",)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    top = _Parser(prog="macdaha", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    poly = sub.add_parser("poly", help="compute a polynomial")
    poly.add_argument("--lambda", dest="lam", required=True)
    poly.add_argument("--vars", type=int, required=True)
    poly.add_argument("--method", choices=("eigen", "branch", "gt"), default="eigen")
    group = poly.add_mutually_exclusive_group()
    group.add_argument("--generic", action="store_true")
    group.add_argument("--k", type=int)

    psi = sub.add_parser("psi", help="compute a branching coefficient")
    psi.add_argument("--lambda", dest="lam", required=True)
    psi.add_argument("--mu", required=True)
    group = psi.add_mutually_exclusive_group()
    group.add_argument("--generic", action="store_true")
    group.add_argument("--k", type=int)

    mat = sub.add_parser("matelt", help="compute a diagonal matrix element")
    mat.add_argument("--lambda", dest="lam", required=True)
    mat.add_argument("--mu", required=True)
    mat.add_argument("--k", type=int, required=True)
    mat.add_argument("--route", choices=("mat_elt", "diag_sum", "cg_sq"),
                     default="mat_elt")

    tr = sub.add_parser("trace", help="reconstruct a weighted trace")
    tr.add_argument("--lambda", dest="lam", required=True)
    tr.add_argument("--vars", type=int, required=True)
    tr.add_argument("--k", type=int, required=True)
    tr.add_argument("--ratio", action="store_true",
                    help="divide by the zero-weight trace")

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--suite")
    ver.add_argument("--list", action="store_true")
    ver.add_argument("--n", type=int, default=2)
    ver.add_argument("--l", type=int, default=2)
    ver.add_argument("--k", type=int, default=2)
    ver.add_argument("--maxdeg", type=int, default=4)
    ver.add_argument("--samples", type=int, default=10)
    ver.add_argument("--seed", type=int, default=0)
    return top


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")


def _require_k(k):
    if k < 1:
        raise _UsageError("k must be a positive integer")
    return k


def _signature(text):
    try:
        return parse_signature(text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _require_vars(n):
    if n < 1:
        raise _UsageError("--vars must be at least 1")
    return n


def _require_envelope(name, n, k, size, what):
    """Raise the usage error unless n variables, k and a size (called what)
    lie inside the envelope of name."""
    row = _ENVELOPE[name]
    if n not in row:
        raise _UsageError(f"{name} takes at most {max(row)} variables (got {n})")
    bound, at = row[n], ""
    if isinstance(bound, tuple):
        if k > len(bound):
            raise _UsageError(f"{name} in {n} variables takes k <= {len(bound)} (got {k})")
        bound, at = bound[k - 1], f" at k = {k}"
    if size > bound:
        raise _UsageError(f"{what} = {size} exceeds {bound}, the {name} size envelope "
                          f"for {n} variables{at}")


def _run(args):
    if args.verb == "poly":
        lam = _signature(args.lam)
        n = _require_vars(args.vars)
        if len(lam) != n:
            raise _UsageError("signature length must equal --vars")
        _require_envelope(f"poly --method {args.method}", n, args.k, sum(lam) - n * lam[-1],
                          "|lambda| - n*lambda_n")
        method = {"eigen": macops.macdonald_eigen,
                  "branch": macops.macdonald_branch,
                  "gt": macops.macdonald_gt}[args.method]
        if args.k is not None:
            _require_k(args.k)
        f = method(lam, n)
        if args.k is not None:
            f = macops.specialize_qk(f, args.k)
        _emit(sym_to_json(f))
        return 0

    if args.verb == "psi":
        lam = _signature(args.lam)
        mu = _signature(args.mu)
        if len(mu) != len(lam) - 1:
            raise _UsageError("mu must be one entry shorter than lambda")
        if not interlaces(mu, lam):
            raise _UsageError("mu must interlace lambda")
        if args.k is not None:
            _require_k(args.k)
        _require_envelope("psi --generic" if args.k is None else "psi --k", len(lam), args.k,
                          lam[0] - lam[-1], "lambda_1 - lambda_n")
        if args.k is not None:
            value = intertwiner.psi_qnum(lam, mu, args.k)
            route = "psi_qnum"
        else:
            value = macops.psi_branch(lam, mu)
            route = "psi_branch"
        _emit({"value": str(value), "route": route})
        return 0

    if args.verb == "matelt":
        lam = _signature(args.lam)
        mu = _signature(args.mu)
        if len(mu) != len(lam) - 1:
            raise _UsageError("mu must be one entry shorter than lambda")
        k = _require_k(args.k)
        _require_envelope("matelt", len(lam), k, lam[0] - lam[-1], "lambda_1 - lambda_n")
        if not in_window(mu, lam, k):
            raise _UsageError("mu must satisfy lambda_{i+1} - (k-1) <= mu_i <= lambda_i")
        if args.route == "diag_sum":
            value = intertwiner.diag_coeff_sum(mu, lam, k)
        elif args.route == "cg_sq":
            value = intertwiner.c_squared_chain(mu, lam, k)
        else:
            value = intertwiner.mat_elt(mu, lam, k)
        _emit({"value": str(value), "route": args.route})
        return 0

    if args.verb == "trace":
        lam = _signature(args.lam)
        n = _require_vars(args.vars)
        if len(lam) != n:
            raise _UsageError("signature length must equal --vars")
        k = _require_k(args.k)
        _require_envelope("trace", n, k, sum(lam) - n * lam[-1], "|lambda| - n*lambda_n")
        if args.ratio:
            _emit(sym_to_json(intertwiner.trace_ratio(lam, n, k)))
        else:
            _emit(npoly_to_json(intertwiner.trace_reconstruct(lam, n, k)))
        return 0

    if args.verb == "verify":
        if args.list:
            _emit({"suites": suites.list_suites()})
            return 0
        if not args.suite:
            raise _UsageError("verify needs --suite NAME or --list")
        _require_k(args.k)
        for name, value, least in (("n", args.n, 1), ("l", args.l, 1),
                                   ("samples", args.samples, 1),
                                   ("maxdeg", args.maxdeg, 0)):
            if value < least:
                raise _UsageError(f"--{name} must be at least {least}")
        if args.suite == "all":
            names = list(suites.SUITES)
        elif args.suite in suites.SUITES:
            names = [args.suite]
        else:
            raise _UsageError(f"unknown suite {args.suite!r}")
        for name, (what, size) in _SUITE_SIZE.items():
            if name in names:
                _require_envelope(name, *size(args), what)
        report = suites.run_suite(args.suite, n=args.n, l=args.l, k=args.k,
                                  maxdeg=args.maxdeg, samples=args.samples, seed=args.seed)
        _emit(report)
        return 0 if report["pass"] else 1

    raise _UsageError(f"unknown verb {args.verb!r}")


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
