"""Memoised structural hashes (``repro.logic.hashmemo``).

The memo must return exactly the value of the generated dataclass hash
(set and dict orders depend on it) and must not survive pickling, since
string hashes are salted per process.
"""

import os
import pickle
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from repro.logic.formulas import And, Comparison, Not, Or
from repro.logic.linear import linearize
from repro.logic.terms import AggCall, Arith, Const, Neg, const, intvar, strvar
from repro.solver.atoms import canonicalize

SRC = Path(__file__).resolve().parent.parent / "src"


def build_objects():
    """One fresh instance of every memoised class (deterministic)."""
    x, s = intvar("x"), strvar("s")
    total = AggCall("SUM", Arith("*", x, const(2)))
    shifted, negated = Arith("+", x, const(1)), Neg(total)
    lt = Comparison("<", shifted, negated)
    like = Comparison("LIKE", s, const("ab%"))
    both = And((lt, Not(like)))
    formula = Or((both, Comparison("=", s, const("z"))))
    literal = canonicalize(lt)
    return [x, Const.of(3), shifted, negated, total, lt, like, Not(like),
            both, formula, linearize(Arith("-", x, const(4))), literal,
            literal.atom]


def generated_hash(obj):
    """What ``@dataclass(frozen=True)`` would return: the hash of the
    tuple of compared fields."""
    return hash(tuple(getattr(obj, f.name) for f in fields(obj) if f.compare))


def rebuild(obj):
    """A new instance from the init fields: its own memo is cold."""
    return type(obj)(*(getattr(obj, f.name) for f in fields(obj) if f.init))


@pytest.mark.parametrize("index", range(len(build_objects())))
def test_memo_equals_generated_hash_warm_or_cold(index):
    warm = rebuild(build_objects()[index])
    cold = rebuild(build_objects()[index])
    assert warm == cold and warm is not cold
    assert hash(warm) == generated_hash(cold)  # warms ``warm`` only
    assert warm._hash is not None and cold._hash is None
    assert hash(cold) == hash(warm)
    assert hash(cold) == generated_hash(cold)


def test_memo_is_outside_equality_and_repr():
    left, right = rebuild(build_objects()[5]), rebuild(build_objects()[5])
    hash(left)
    assert right._hash is None
    assert left == right
    assert repr(left) == repr(right) and "_hash" not in repr(left)


def test_pickle_round_trip_drops_the_memo():
    for obj in build_objects():
        hash(obj)
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == obj and copy._hash is None
        assert hash(copy) == hash(obj)


PRODUCER = """
import pickle, sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from test_hash_memo import build_objects
objects = build_objects()
keyed = {{obj: i for i, obj in enumerate(objects)}}  # warms every memo
sys.stdout.buffer.write(pickle.dumps((objects, set(objects), keyed)))
"""

CONSUMER = """
import pickle, sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from test_hash_memo import build_objects
objects, as_set, keyed = pickle.loads(sys.stdin.buffer.read())
fresh = build_objects()
assert [hash(o) for o in objects] == [hash(o) for o in fresh]
assert all(obj in as_set for obj in fresh)
assert [keyed[obj] for obj in fresh] == list(range(len(fresh)))
assert all({{obj: 1}}.get(twin) == 1 for obj, twin in zip(objects, fresh))
print("ok")
"""


def _python(code, seed, stdin=None):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    source = code.format(src=str(SRC), tests=str(Path(__file__).parent))
    return subprocess.run(
        [sys.executable, "-c", source], input=stdin, env=env,
        capture_output=True, check=True, timeout=120,
    ).stdout


def test_unpickled_objects_hash_with_the_receiving_process_salt():
    """Objects pickled with warm memos under one hash seed must be found
    by set and dict lookups in a process with another seed."""
    payload = _python(PRODUCER, seed=1)
    assert _python(CONSUMER, seed=2, stdin=payload).strip() == b"ok"
