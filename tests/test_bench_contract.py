"""What the benchmark in ``perfbench/`` reads from the package: the
functions its tracer wraps by name, the bitset-row exchange format of
relations and the ``StateSpace.states`` view.  A rename that would break
``perfbench/run.py --trace 1`` fails here first.  The benchmark's files
are only read: tracing.py is executed from its source text, so no
bytecode cache is written next to it."""

from pathlib import Path
from types import ModuleType

from mengerkit import BinRelation

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing() -> ModuleType:
    module = ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    names = [name for layers in (tracing.LAYERS, tracing.SELF_LAYERS)
             for group in layers.values() for name in group]
    assert "bitrel.BinRelation.then" in names
    assert "bitrel.BinRelation.transitive_closure" in names
    for name in names:
        owner, attr, original = tracing._resolve(name)
        assert callable(original) and getattr(owner, attr) is original, name


def test_bitset_rows_round_trip():
    for size, rows in ((3, (0b101, 0, 0b110)), (70, (1 << 69 | 1,) + (0,) * 69)):
        r = BinRelation(size, rows)
        assert r.rows == rows and all(type(row) is int for row in r.rows)
        assert BinRelation(size, r.rows) == r


def test_state_space_keeps_the_states_view(zero_proj):
    space = zero_proj.states()
    assert len(space.states) == len(space.slots) > 0
