"""Property tests for the kernel backends.

The contract (repro.kernels.interface) demands that every backend is
byte-identical to the ``pure`` reference.  Hypothesis drives random page
contents through all six operations and compares backends pairwise --
for diffs, the packed wire encoding itself; the explicit cases pin the
edges the fuzzer might undersample (empty diff, full-page diff, runs
touching both word boundaries).  ``TestPackedContract`` decodes each
backend's encoding and checks it against the run algorithm as it stood
when a diff was a tuple of ``(offset, bytes)`` runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import WORD, KernelBackend, get_backend
from repro.kernels import compiled, numpy_backend, pure
from repro.kernels.interface import (EMPTY_DIFF, RUN_COUNT_BYTES,
                                     RUN_HEADER_BYTES, pack_runs, run_count,
                                     unpack_runs)

PURE = get_backend("pure")

#: Every distinct backend object resolvable right now.  When the C
#: extension is not built, "compiled" resolves to numpy and the suite
#: degrades to comparing pure vs numpy (still a real check).
BACKENDS = {get_backend(name).name: get_backend(name)
            for name in ("pure", "numpy", "compiled")}

PAGE_WORDS = 32
PAGE_BYTES = PAGE_WORDS * WORD


def _page(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=np.uint8).copy()


@st.composite
def page_pairs(draw):
    """(current, twin): a random twin plus a mutation of it."""
    twin = draw(st.binary(min_size=PAGE_BYTES, max_size=PAGE_BYTES))
    current = bytearray(twin)
    nflips = draw(st.integers(min_value=0, max_value=PAGE_BYTES))
    for _ in range(nflips):
        pos = draw(st.integers(min_value=0, max_value=PAGE_BYTES - 1))
        current[pos] = draw(st.integers(min_value=0, max_value=255))
    return bytes(current), twin


class TestMakeDiffProperties:
    @settings(max_examples=60, deadline=None)
    @given(page_pairs())
    def test_all_backends_match_pure(self, pair):
        current, twin = pair
        expected = PURE.make_diff(_page(current), _page(twin))
        assert type(expected) is bytes
        for backend in BACKENDS.values():
            got = backend.make_diff(_page(current), _page(twin))
            assert type(got) is bytes, backend.name
            assert got == expected, backend.name

    @settings(max_examples=25, deadline=None)
    @given(st.lists(page_pairs(), min_size=0, max_size=5))
    def test_batch_matches_scalar(self, pairs):
        currents = [_page(c) for c, _ in pairs]
        twins = [_page(t) for _, t in pairs]
        expected = [PURE.make_diff(c, t) for c, t in zip(currents, twins)]
        for backend in BACKENDS.values():
            got = backend.make_diff_batch(currents, twins)
            assert list(got) == expected, backend.name

    @settings(max_examples=40, deadline=None)
    @given(page_pairs())
    def test_roundtrip_reconstructs_current(self, pair):
        current, twin = pair
        for backend in BACKENDS.values():
            runs = backend.make_diff(_page(current), _page(twin))
            patched = bytearray(twin)
            written = backend.apply_diff(patched, runs)
            assert bytes(patched) == current, backend.name
            assert written == sum(len(data) for _, data in unpack_runs(runs))

    @settings(max_examples=40, deadline=None)
    @given(page_pairs())
    def test_twin_compare_matches_equality(self, pair):
        current, twin = pair
        for backend in BACKENDS.values():
            assert backend.twin_compare(_page(current), _page(twin)) \
                == (current == twin), backend.name


class TestMakeDiffEdges:
    def test_empty_diff(self):
        page = _page(bytes(range(256))[:PAGE_BYTES] * 1)
        for backend in BACKENDS.values():
            assert backend.make_diff(page, page.copy()) == EMPTY_DIFF, \
                backend.name

    def test_full_page_diff(self):
        current = _page(b"\xff" * PAGE_BYTES)
        twin = _page(b"\x00" * PAGE_BYTES)
        for backend in BACKENDS.values():
            runs = backend.make_diff(current, twin)
            assert runs == pack_runs(((0, b"\xff" * PAGE_BYTES),)), \
                backend.name

    def test_word_boundary_runs(self):
        # Change the first byte of the first word and the last byte of
        # the last word: runs must extend to word boundaries.
        twin = bytearray(PAGE_BYTES)
        current = bytearray(PAGE_BYTES)
        current[0] = 1
        current[PAGE_BYTES - 1] = 2
        expected = ((0, bytes(current[:WORD])),
                    (PAGE_BYTES - WORD, bytes(current[-WORD:])))
        for backend in BACKENDS.values():
            runs = backend.make_diff(_page(bytes(current)),
                                     _page(bytes(twin)))
            assert runs == pack_runs(expected), backend.name

    def test_adjacent_words_merge(self):
        twin = bytearray(PAGE_BYTES)
        current = bytearray(PAGE_BYTES)
        current[4] = 1   # word 1
        current[9] = 2   # word 2 -> one merged run over words 1-2
        for backend in BACKENDS.values():
            runs = backend.make_diff(_page(bytes(current)),
                                     _page(bytes(twin)))
            assert runs == pack_runs(((4, bytes(current[4:12])),)), \
                backend.name

    def test_empty_batch(self):
        for backend in BACKENDS.values():
            assert backend.make_diff_batch([], []) == [], backend.name

    def test_apply_batch_in_order(self):
        page = bytearray(PAGE_BYTES)
        runs_list = [pack_runs(((0, b"\x01" * WORD),)),
                     pack_runs(((0, b"\x02" * WORD),))]
        for backend in BACKENDS.values():
            target = bytearray(page)
            written = backend.apply_diff_batch(target, runs_list)
            assert target[:WORD] == b"\x02" * WORD, backend.name
            assert written == 2 * WORD


class TestFaultScan:
    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=1, max_size=64), st.data())
    def test_matches_pure(self, table, data):
        valid = bytearray(b % 2 for b in table)
        lo = data.draw(st.integers(min_value=0, max_value=len(valid)))
        hi = data.draw(st.integers(min_value=lo, max_value=len(valid)))
        expected = PURE.fault_scan(valid, lo, hi)
        for backend in BACKENDS.values():
            assert backend.fault_scan(valid, lo, hi) == expected, \
                backend.name

    def test_empty_window(self):
        for backend in BACKENDS.values():
            assert backend.fault_scan(bytearray(b"\x00\x01"), 1, 1) == []


class TestRegistry:
    def test_choices_resolve(self):
        for name in ("pure", "numpy", "compiled", None):
            assert isinstance(get_backend(name), KernelBackend)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernels backend"):
            get_backend("fortran")

    def test_compiled_always_resolves(self):
        # Built -> the C backend; unbuilt -> the numpy fallback.  Either
        # way the call succeeds and returns a usable backend.
        backend = get_backend("compiled")
        assert backend.name in ("compiled", "numpy")

    def test_selection_is_observed(self):
        # None = the best backend this process can import; nothing sets it.
        built = compiled.BACKEND is not None
        assert get_backend().name == ("compiled" if built else "numpy")
        assert get_backend() is get_backend("compiled")
        assert get_backend("pure") is pure.BACKEND

    def test_numpy_defines_only_the_ops_it_wins(self):
        numpy = numpy_backend.BACKEND
        assert numpy.apply_diff is pure.apply_diff
        assert numpy.apply_diff_batch is pure.apply_diff_batch
        assert numpy.twin_compare is pure.twin_compare
        for op in ("make_diff", "make_diff_batch", "fault_scan"):
            assert getattr(numpy, op) is not getattr(pure.BACKEND, op)


class TestCompiledExtension:
    """Exercises the C extension specifically (skipped when unbuilt)."""

    @pytest.fixture(autouse=True)
    def _need_compiled(self):
        if get_backend("compiled").name != "compiled":
            pytest.skip("C extension not built (tools/build_kernels.py)")

    def test_size_mismatch_rejected(self):
        compiled = get_backend("compiled")
        with pytest.raises(ValueError):
            compiled.make_diff(_page(b"\x00" * 8), _page(b"\x00" * 12))

    def test_run_out_of_bounds_rejected(self):
        compiled = get_backend("compiled")
        with pytest.raises(ValueError):
            compiled.apply_diff(bytearray(8), pack_runs(((4, b"\x00" * 8),)))

    @pytest.mark.parametrize("cut", [
        2,                                   # inside the run count
        RUN_COUNT_BYTES + 5,                 # inside a run header
        RUN_COUNT_BYTES + RUN_HEADER_BYTES + 3,  # inside a run's data
    ])
    def test_truncated_buffer_rejected(self, cut):
        compiled = get_backend("compiled")
        packed = pack_runs(((0, b"\x01" * 8),))
        page = bytearray(16)
        with pytest.raises(ValueError, match="truncated"):
            compiled.apply_diff(page, packed[:cut])
        with pytest.raises(ValueError, match="truncated"):
            compiled.apply_diff_batch(page, [EMPTY_DIFF, packed[:cut]])

    @pytest.mark.parametrize("runs", [
        ((12, b"\x00" * 8),),               # runs off the end
        ((16, b"\x00" * 4),),               # starts at the end
        ((-4, b"\x00" * 4),),               # negative offset
    ])
    def test_run_past_page_rejected(self, runs):
        compiled = get_backend("compiled")
        with pytest.raises(ValueError, match="page bounds"):
            compiled.apply_diff(bytearray(16), pack_runs(runs))

    def test_trailing_bytes_rejected(self):
        compiled = get_backend("compiled")
        with pytest.raises(ValueError, match="trailing"):
            compiled.apply_diff(bytearray(16), EMPTY_DIFF + b"\x00")


def old_make_diff(current: bytes, twin: bytes):
    """Word-granular runs as ``((offset, bytes), ...)``: the reference
    algorithm from before a diff was its wire encoding, kept here so the
    packed kernels are checked against something they do not share."""
    runs = []
    start = None
    for off in range(0, len(current), WORD):
        if current[off:off + WORD] != twin[off:off + WORD]:
            if start is None:
                start = off
        elif start is not None:
            runs.append((start, current[start:off]))
            start = None
    if start is not None:
        runs.append((start, current[start:]))
    return tuple(runs)


class TestPackedContract:
    """Every backend's encoding decodes to the old tuple algorithm's runs,
    and its sizes follow from the run count alone."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(page_pairs(), min_size=1, max_size=4))
    def test_decodes_to_old_runs(self, pairs):
        currents = [_page(c) for c, _ in pairs]
        twins = [_page(t) for _, t in pairs]
        expected = [old_make_diff(c, t) for c, t in pairs]
        for backend in BACKENDS.values():
            single = [backend.make_diff(c, t)
                      for c, t in zip(currents, twins)]
            batch = backend.make_diff_batch(currents, twins)
            for packed in single + list(batch):
                assert type(packed) is bytes, backend.name
            assert [unpack_runs(p) for p in single] == expected, backend.name
            assert [unpack_runs(p) for p in batch] == expected, backend.name

    @settings(max_examples=40, deadline=None)
    @given(page_pairs())
    def test_sizes_from_the_count(self, pair):
        runs = old_make_diff(*pair)
        packed = PURE.make_diff(_page(pair[0]), _page(pair[1]))
        wire = len(packed) - RUN_COUNT_BYTES
        assert run_count(packed) == len(runs)
        assert wire == sum(RUN_HEADER_BYTES + len(d) for _, d in runs)
        assert wire - RUN_HEADER_BYTES * len(runs) \
            == sum(len(d) for _, d in runs)
        assert pack_runs(runs) == packed
