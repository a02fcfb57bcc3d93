"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` (or the packaged
``polyzeta selftest --level full``) to see the per-criterion report.
"""

import re
from types import SimpleNamespace

import pytest

from polyzeta import BigReal, acceptance, cli, identities
from polyzeta.acceptance import CRITERIA
from polyzeta.identities import FormalSum

# the line `polyzeta selftest --level full` prints for each criterion;
# residuals are exact functions of the evaluator, so any change shows here
GOLDEN = {
    "euler":
        "pass euler: z(2,1) equals z(3) at 50 digits [max residual < 10^-45]",
    "ezface-golden":
        "pass ezface-golden: eval \"Pi^6/z(6)\" prints 945.000... [prints 945.0000..0; max residual < 10^-44]",
    "lindep-weight8":
        "pass lindep-weight8: relation on the weight-8 depth-3 vector [recovered (36, 36, -71, 90, -18), residual 5.8e-70]",
    "lindep-log-form":
        "pass lindep-log-form: relation (12,-1,-12,-12) on the log form [recovered (12, -1, -12, -12), residual 0.0e+00]",
    "zagier":
        "pass zagier: z({3,1}^n) = 2 pi^4n/(4n+2)! for n <= 3 [worst residual 4.528e-72]",
    "z213-family":
        "pass z213-family: z(2,{1,3}^n) closed form for n <= 2 [worst residual 1.811e-71]",
    "duality":
        "pass duality: alternating pair + randomized word duality [worst residual 8.843e-75]",
    "holder-invariance":
        "pass holder-invariance: split parameter invariance p in {2,3,3/2} [worst residual 0.000e+00]",
    "closed-forms":
        "pass closed-forms: powers of log 2, base-3 units, dilog at 1/2 [worst residual 9.056e-72]",
    "t4-t5":
        "pass t4-t5: unit Euler sums vs A/P/Z closed forms [worst residual 1.537e-70]",
    "functional-equation":
        "pass functional-equation: eighth-value identity and J equation [J-equation residual 0.000e+00]",
    "zagier-dressed":
        "pass zagier-dressed: 2-insertions of {3,1} sum to pi^6/7! [max residual < 10^-40]",
    "reversal-reduction":
        "pass reversal-reduction: depth-2 and depth-3 reversal sums [worst residual 3.561e-66]",
    "simplex-lock":
        "pass simplex-lock: delta(-n) matches the recurrence [worst residual 0.000e+00]",
    "property-suites":
        "pass property-suites: rational rule, shuffles, planted relations [rational rule 200/200, shuffle counts, planted 100/100, monotonic, products consistent]",
}


@pytest.mark.parametrize("criterion", CRITERIA, ids=[c.ident for c in CRITERIA])
def test_acceptance_criterion(criterion):
    ok, line = criterion.run()
    print("\n" + line)
    assert ok, line
    assert line == GOLDEN[criterion.ident]


@pytest.mark.parametrize("level", ["fast", "full"])
def test_selftest_prints_golden_lines_and_timings_to_stderr(level, capsys):
    assert cli.run(["selftest", "--level", level]) == 0
    out, err = capsys.readouterr()
    # the fast level skips only the criteria that take 0.18 s or more on 2 cores
    assert {c.ident for c in CRITERIA if c.slow} == {"duality", "holder-invariance", "property-suites"}
    skipped = {c.ident for c in CRITERIA if c.slow and level == "fast"}
    assert out.splitlines() == [
        f"skip {c.ident}: {c.label}" if c.ident in skipped else GOLDEN[c.ident] for c in CRITERIA
    ]
    run = [c.ident for c in CRITERIA if c.ident not in skipped]
    lines = err.splitlines()
    assert len(lines) == len(run)
    for ident, line in zip(run, lines):
        assert re.fullmatch(rf"time {re.escape(ident)}: \d+\.\d{{3}} s", line), line


# wrong stand-ins for the names polyzeta.acceptance imports
_NO_RELATION = lambda values: SimpleNamespace(coefficients=None)
_DEPTH_AS_Z = lambda entries, prec: BigReal(len(entries), prec)
_MINUS_ONE = lambda *args: BigReal(-1, args[-1])
# property-suites runs its checks in turn; these pass its planted-relation
# step at once (no lindep runs), so that a later step is the one that fails
_PLANTED_FOUND = {
    "planted_relation": lambda seed: ((), ()),
    "lindep": lambda values: SimpleNamespace(coefficients=()),
}

FAILURES = [
    ("euler", {"evaluate_z": _DEPTH_AS_Z}, r"\|diff\|"),
    ("ezface-golden", {"eval_expression": lambda e, prec: BigReal(944, prec)}, r"printed '944\."),
    ("lindep-weight8", {"lindep": _NO_RELATION}, r"got None, wanted \(36,"),
    ("lindep-log-form", {"lindep": _NO_RELATION}, r"got None, wanted \(12,"),
    ("zagier", {"zagier": _MINUS_ONE}, r"worst residual"),
    ("z213-family", {"z213": _MINUS_ONE}, r"worst residual"),
    ("duality", {"evaluate_lambda": _MINUS_ONE}, r"alternating pair residual"),
    (
        "holder-invariance",
        {"evaluate_lambda": lambda spec, prec: BigReal(sum(spec.bases), prec)},
        r"worst residual",
    ),
    ("closed-forms", {"mu_power": _MINUS_ONE}, r"worst residual"),
    ("t4-t5", {"t5": _MINUS_ONE}, r"worst residual"),
    ("functional-equation", {"evaluate_z": _DEPTH_AS_Z}, r"eighth-value residual"),
    ("zagier-dressed", {"evaluate_z": _DEPTH_AS_Z}, r"\|diff\|"),
    ("reversal-reduction", {"evaluate_formal_sum": _MINUS_ONE}, r"worst residual"),
    ("simplex-lock", {"delta_negative_exact": lambda n: 0}, r"recurrence value for n=0"),
    ("property-suites", {"rational_stuffle_check": lambda a, b: False}, r"rational product rule"),
    ("property-suites", {"shuffle_words": lambda w1, w2: ()}, r"shuffle multiplicity off"),
    ("property-suites", {"lindep": _NO_RELATION}, r"100/100 planted relations missed"),
    (
        "property-suites",
        {**_PLANTED_FOUND, "pi": lambda prec: BigReal(prec.digits, prec)},
        r"monotonicity broke at 30 digits",
    ),
    (
        "property-suites",
        {**_PLANTED_FOUND, "stuffle_identity": lambda u, v: FormalSum()},
        r"stuffle consistency failed",
    ),
    (
        "property-suites",
        {**_PLANTED_FOUND, "evaluate_word": _MINUS_ONE},
        r"shuffle consistency failed",
    ),
]


@pytest.mark.parametrize(
    "ident, patches, detail",
    FAILURES,
    ids=[f"{ident}-{'+'.join(patches)}" for ident, patches, _ in FAILURES],
)
def test_criterion_fails_on_a_wrong_value(ident, patches, detail, monkeypatch):
    # every criterion, and every early `return False` of each, reports FAIL
    for name, fake in patches.items():
        monkeypatch.setattr(acceptance, name, fake)
    criterion = next(c for c in CRITERIA if c.ident == ident)
    ok, line = criterion.run()
    assert ok is False
    assert line.startswith(f"FAIL {ident}: {criterion.label} [")
    assert re.search(detail, line), line


def test_rational_rule_fails_on_a_stuffle_dp_without_merges(monkeypatch):
    # the rational product rule counts its terms through the stuffle DP the
    # package runs, so a DP that drops its merge step (the paths with fewer
    # letters) fails it, 1/8 not being 1/28 + 1/56, and property-suites
    # reports FAIL
    counts = identities._stuffle_counts

    def no_merge(s, t, codes=None):
        return {key: n for key, n in counts(s, t, codes).items() if len(key) == len(s) + len(t)}

    monkeypatch.setattr(identities, "_stuffle_counts", no_merge)
    assert identities.rational_stuffle_check((3,), (5,)) is False
    criterion = next(c for c in CRITERIA if c.ident == "property-suites")
    ok, line = criterion.run()
    assert ok is False
    assert line.startswith(f"FAIL property-suites: {criterion.label} [rational product rule failed")
