"""Every benchmark reference spec evaluates to the same bits as it did when
these digests were taken: a change to the kernel's arithmetic that claims to
leave values alone is held to every bit of 148 values, not to a tolerance."""

import hashlib
import json
import os

from polyzeta import Precision, evaluate_lambda, parse_spec

REFS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "refs")
# the reference pools and the digits their benchmark workloads run at
POOLS = (("geometric_hiprec", 1000), ("mzv_table", 200))
SPECS_SHA256 = "dfab6c289bc6e40a6ddc36e6adca835088532e06981f7e5ebd62771ef5d664b3"
VALUES_SHA256 = "b08249a5575b98feb944f92a8890aae4082ecc574dd4b00f5d023d804944ba5c"


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def reference_specs():
    specs = []
    for name, digits in POOLS:
        with open(os.path.join(REFS, f"{name}.json"), encoding="utf-8") as fh:
            specs += [(entry["spec"], digits) for entry in json.load(fh)["entries"]]
    return specs


def test_reference_values_keep_every_bit():
    specs = reference_specs()
    assert len(specs) == 148
    assert sha256_lines(spec for spec, _ in specs) == SPECS_SHA256, (
        "the reference specs under perfbench/refs changed; the value digest "
        "below pins the old list and must be taken again"
    )
    raw = [
        repr(evaluate_lambda(parse_spec(spec), Precision(digits)).mpf._mpf_)
        for spec, digits in specs
    ]
    assert sha256_lines(raw) == VALUES_SHA256
