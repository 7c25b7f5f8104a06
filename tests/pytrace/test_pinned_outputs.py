"""pytrace's outputs are pinned: the profiles a session hands its tools.

Each case runs one seeded program (``tests/pytrace/programs.py``) under
a bus of analyses — the TRMS profiler (keeping its activations), the
RMS profiler, the naive Figure 10 oracle, callgrind, and TRMS variants
keyed by calling context, on the chunked shadow memory and renumbering
under a small ``max_count`` — and hashes what they report: the
``repro-profile 1`` dumps, the TRMS activation list and callgrind's
inclusive and exclusive tables.  A change to how a session orders,
batches or charges its events may move the events but none of these.
"""

import hashlib
import io
import json

import pytest

from repro.core import EventBus, NaiveTrms, RmsProfiler, TrmsProfiler
from repro.farm import save_profile
from repro.pytrace import TraceSession
from repro.tools import Callgrind

from . import programs

#: SHA-256 of each case's outputs (see :func:`outputs`)
PINNED = {
    "auto": "4987c613d248f3727b1fb2f35cda11eb7cb82f20ec6e5b03951ef60dbb026de2",
    "charged-op0-call0": "c5ce58094b0fdb3c7adfcc6fbda76d7992f95f28cb6c3d133f847c61f655f2cc",
    "charged-op1-call1": "5a42b3522698be61697de018fa0aa2b5d200b00c1e3242745be4d2d19f64d4e3",
    "kernel": "da9305f8753394ebb0b25b84defcebe1b5783bd717565da12d6737c7f8d94514",
    "nested": "f46a065ce3ba2157e0679eda2b34a2a1b9b84f22d0b0ee7325cfbfd1db7b3fff",
    "raising": "7788f5d91c92f9e2f9cba5dc349bfcd4ae8fd09aa47c80d8a766c6c187014af0",
    "solo-op0-call0": "1c1b4635238ac35999b2b1a18ddb543021b70a9110dc0b75a8b7a76a3734e37c",
    "solo-op0-call1": "871f90e62f3a7d30363e02d3fe86959a0d321090baec4957eaac7616bdbb5669",
    "solo-op0-call3": "30bb7676f4bc2d83936b5a6cfaed6807be2feca4088ce4773bf53e156161ee97",
    "solo-op1-call0": "d6c5ed36732d8c49b9de9c423efc687ad9dd4ef188f94cfc913ca9ae5d7c475e",
    "solo-op1-call1": "e5817e8c8c96aa58b1dbba1b7fd05508cdf76ee62d39bf16ab6e46a30f4f9a61",
    "solo-op1-call3": "855674f88fff85c61c900a2adcf73184f3c32e8bd480c0fbf6ca4fb41f83c57d",
    "solo-op3-call0": "1bb373af27e156c4e5be90ca89d5bec7a8cc5c2dd532b3371961164c4a0f65b4",
    "solo-op3-call1": "7e9057e23c8c5b953fdd526c4fb98c4e68971aeb0982f6fa5fc3e74364396032",
    "solo-op3-call3": "90730197a53fa643943c337da6846cb8c80dcb488c9a7cced3305601edd0d7f0",
    "trio-op0-call3": "ae0db64a8b9dcc09ccae9feca063ec9bb53ad2cbd0303d4c5c74fbc33ca974f1",
    "trio-op1-call1": "9b30e32bff66191af1250027a5a27e5a5f10c433aa14d2eae421bcbd967445ec",
    "trio-op3-call0": "8c71d9b978e41fc3d1df44e2053a449fd6ee05d4ca0e38160ed4543638aac185",
}

#: renumber whenever the global counter reaches this value
MAX_COUNT = 24

COSTS = (0, 1, 3)


def tool_bundle():
    return {
        "trms": TrmsProfiler(keep_activations=True),
        "rms": RmsProfiler(),
        "naive-trms": NaiveTrms(),
        "callgrind": Callgrind(),
        "trms-context": TrmsProfiler(context_sensitive=True),
        "trms-chunked": TrmsProfiler(use_chunked_shadow=True),
        "trms-renumbered": TrmsProfiler(max_count=MAX_COUNT),
        "rms-renumbered": RmsProfiler(max_count=MAX_COUNT),
    }


def outputs(bundle) -> str:
    """Everything ``bundle``'s tools report, as one text."""
    parts = []
    for label, tool in bundle.items():
        if isinstance(tool, Callgrind):
            report = tool.report()
            text = json.dumps({"inclusive": report["inclusive"],
                               "exclusive": report["exclusive"]}, sort_keys=True)
        else:
            stream = io.StringIO()
            save_profile(tool.db, stream)
            text = stream.getvalue()
        parts.append(f"== {label}\n{text}")
    parts.append("== trms activations\n" + "\n".join(
        repr(tuple(record)) for record in bundle["trms"].db.activations))
    return "\n".join(parts)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_case(program, op_cost=1, call_cost=1) -> str:
    bundle = tool_bundle()
    session = TraceSession(tools=EventBus(list(bundle.values())),
                           op_cost=op_cost, call_cost=call_cost)
    with session:
        program(session)
    return outputs(bundle)


def run_nested() -> str:
    inner = tool_bundle()
    nested = programs.make_nested(EventBus(list(inner.values())),
                                  inner_op_cost=3, inner_call_cost=0)
    return run_case(nested) + "\n== inner session\n" + outputs(inner)


def cases():
    """Case name -> a function computing that case's outputs."""
    table = {}
    for op_cost in COSTS:
        for call_cost in COSTS:
            table[f"solo-op{op_cost}-call{call_cost}"] = (
                lambda o=op_cost, c=call_cost: run_case(programs.solo, o, c))
    for op_cost, call_cost in ((1, 1), (0, 3), (3, 0)):
        table[f"trio-op{op_cost}-call{call_cost}"] = (
            lambda o=op_cost, c=call_cost: run_case(programs.trio, o, c))
    table["charged-op1-call1"] = lambda: run_case(programs.charged)
    table["charged-op0-call0"] = lambda: run_case(programs.charged, 0, 0)
    table["kernel"] = lambda: run_case(programs.kernel_io)
    table["raising"] = lambda: run_case(programs.raising)
    table["auto"] = lambda: run_case(programs.autotraced)
    table["nested"] = run_nested
    return table


CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_pytrace_outputs_are_pinned(name):
    assert digest(CASES[name]()) == PINNED[name]


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(CASES)


def test_a_rerun_repeats_the_outputs():
    """The programs are deterministic, threads included."""
    for name in ("trio-op1-call1", "auto", "nested"):
        assert CASES[name]() == CASES[name]()
