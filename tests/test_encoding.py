"""Encoder tests: the ten-bit stage, the five-bit majorities and the packed
rows, all through ``encode_matrix`` against the per-amplitude reference."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bicsi.encoding import ENCODER_OVERFLOW, GeneMatrix, encode_matrix
from bicsi.errors import DataDomainError, EmptyInputError, LengthMismatchError
from bicsi.fingerprint import windows
from bicsi.ingest import AmplitudeMatrix

from conftest import (
    gs,
    reference_code,
    reference_encoding,
    rows_of,
    unpack_independently,
    unpack_rows,
)


def encoded(amplitudes) -> list:
    """Bits of one packet row of amplitudes, encoded as a one-row matrix."""
    return unpack_independently(encode_matrix(np.array([amplitudes], dtype=np.int64)))


class TestEncode10:
    """The ten-bit stage: base 2 below the cutoff, all zeros at or past it."""

    def test_small_value(self):
        # 5 = 00000 00101, 7 = 00000 00111 and 7 << 5 = 00111 00000
        assert encoded([5, 7, 7 << 5]) == [0, 0, 0, 1, 1, 0]

    def test_overflow_collapses_to_zero(self):
        # 2047 would read (1, 1) if the code kept its low ten bits
        assert encoded([1024, 5000, 2047]) == [0] * 6

    def test_max_in_range(self):
        assert encoded([1023]) == [1, 1]

    def test_negative_rejected(self):
        with pytest.raises(DataDomainError):
            encode_matrix(np.array([[0, -1]]))

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            encode_matrix(np.array([[1.5]]))

    def test_exhaustive_branch_rule(self):
        amplitudes = np.arange(2048, dtype=np.int64)[:, None]
        at_zero = np.where(amplitudes < ENCODER_OVERFLOW, amplitudes, 0)
        assert encode_matrix(amplitudes) == encode_matrix(at_zero)


class TestMajority5:
    """The vote over each five-bit half, seen in the half's own bit."""

    def test_two_ones_is_zero(self):
        assert encoded([0b00101 << 5, 0b00101]) == [0, 0, 0, 0]

    def test_three_ones_is_one(self):
        assert encoded([0b11100 << 5, 0b11100]) == [1, 0, 0, 1]

    def test_all_zero(self):
        assert encoded([0]) == [0, 0]

    def test_monotone_exhaustive(self):
        # flipping any 0 to 1 in either half never drops that half's vote
        votes = unpack_rows(encode_matrix(np.arange(1024, dtype=np.int64)[:, None]))
        for value in range(1024):
            for bit in range(10):
                if not value >> bit & 1:
                    half = 0 if bit >= 5 else 1
                    assert votes[value | 1 << bit, half] >= votes[value, half]


class TestReencode2:
    def test_sparse_halves(self):
        assert encoded([5]) == [0, 0]

    def test_both_halves_majority(self):
        assert encoded([0b1110000111]) == [1, 1]

    def test_all_ones(self):
        assert encoded([1023]) == [1, 1]


class TestEncodeRow:
    def test_extremes(self):
        assert encoded([1023, 0]) == [1, 1, 0, 0]

    def test_all_overflow_row(self):
        assert encoded([1024] * 7) == [0] * 14

    def test_forty(self):
        # 40 = 0000101000; each half holds one set bit
        assert encoded([40]) == [0, 0]

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError):
            encode_matrix(np.zeros((1, 0), dtype=np.int64))

    def test_negative_rejected(self):
        with pytest.raises(DataDomainError):
            encode_matrix(np.array([[3, -1]]))

    @given(st.lists(st.integers(0, 2047), min_size=1, max_size=40))
    def test_matches_scalar_composition(self, amplitudes):
        assert encoded(amplitudes) == reference_encoding(amplitudes)

    def test_matches_scalar_composition_exhaustive(self):
        bits = unpack_rows(encode_matrix(np.arange(2048, dtype=np.int64)[:, None]))
        assert bits.tolist() == [reference_code(ap) for ap in range(2048)]


class TestEncodeMatrix:
    def test_shape_contract(self):
        gm = encode_matrix(np.zeros((3, 5), dtype=np.int64))
        assert len(gm) == 3 and gm.bit_length == 10
        assert all(len(row) == 1 and row.bit_length == 10 for row in gm)

    def test_identical_rows_identical_sequences(self):
        m = np.tile(np.arange(8, dtype=np.int64), (4, 1))
        gm = encode_matrix(m)
        assert len({row.packed.tobytes() for row in gm}) == 1

    def test_overflow_values_collapse_alike(self):
        a = np.array([[1024, 33, 700]], dtype=np.int64)
        b = np.array([[5000, 33, 700]], dtype=np.int64)
        assert encode_matrix(a)[0] == encode_matrix(b)[0]

    def test_deterministic(self):
        m = np.arange(24, dtype=np.int64).reshape(4, 6) * 37 % 1100
        assert encode_matrix(m) == encode_matrix(m)

    @given(st.integers(1, 12).flatmap(lambda k: st.lists(
        st.lists(st.integers(0, 2047), min_size=k, max_size=k), min_size=1, max_size=20)))
    def test_rows_match_encode_row(self, rows):
        m = np.asarray(rows, dtype=np.int64)
        gm = encode_matrix(m)
        assert len(gm) == len(m)
        for i in range(len(m)):
            assert gm[i] == encode_matrix(m[i:i + 1])
            assert unpack_independently(gm[i]) == reference_encoding(rows[i])

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint16, np.int32, np.uint64])
    def test_integer_dtypes_agree(self, dtype):
        m = np.arange(2048, dtype=np.int64).reshape(128, 16)
        m = m[m.max(axis=1) <= np.iinfo(dtype).max]
        assert np.array_equal(encode_matrix(m.astype(dtype)).packed, encode_matrix(m).packed)

    @pytest.mark.parametrize("dtype", [
        np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64,
        ">i8", ">u2", "<u4"])
    def test_amplitude_matrix_encodes_like_its_array(self, dtype):
        top = int(np.iinfo(dtype).max)
        values = [v for v in (0, 1023, 1024, 2**62) if v <= top] + [top]
        a = np.array([values, values[::-1]], dtype=dtype)
        trusted = encode_matrix(AmplitudeMatrix(a, range(len(values))))
        assert np.array_equal(trusted.packed, encode_matrix(a).packed)
        assert unpack_independently(trusted[0]) == reference_encoding(values)

    @pytest.mark.parametrize("raw", [
        np.array([[3, -1]]),
        np.array([[3.0, 1.0]]),
        np.array([[True, False]]),
    ])
    def test_raw_array_checks_stay(self, raw):
        # a raw array is checked as an AmplitudeMatrix, whose sign check is a domain error
        with pytest.raises(DataDomainError if raw.dtype.kind == "i" else ValueError):
            encode_matrix(raw)

    @pytest.mark.parametrize("k", [1, 3, 229, 230])
    def test_read_only_with_zero_padding(self, k):
        # 1023 encodes as (1, 1): every data bit is set, the padding is not
        gm = encode_matrix(np.full((4, k), 1023, dtype=np.int64))
        assert gm.packed.shape == (4, -(-2 * k // 8))
        assert not gm.packed.flags.writeable
        assert not (gm.packed[:, -1] & ((1 << (8 - 2 * k % 8)) - 1)).any()
        assert np.array_equal(GeneMatrix(gm.packed.copy(), k).packed, gm.packed)


class TestGeneMatrix:
    def gm(self):
        return encode_matrix(np.arange(15, dtype=np.int64).reshape(5, 3) * 61)

    def test_shape_and_dtype(self):
        gm = self.gm()
        assert gm.packed.shape == (5, 1) and gm.packed.dtype == np.uint8
        assert gm.bit_length == 6

    def test_index_and_slice(self):
        gm = self.gm()
        rows = list(gm)
        assert len(rows) == 5
        assert all(isinstance(row, GeneMatrix) and len(row) == 1 for row in rows)
        assert gm[-1] == rows[4] == GeneMatrix(gm.packed[4:], 3)
        assert gm[np.int64(2)] == rows[2]
        tail = gm[1:4]
        assert isinstance(tail, GeneMatrix)
        assert list(tail) == rows[1:4]
        for index in (5, -6):
            with pytest.raises(IndexError):
                gm[index]

    def test_read_only(self):
        with pytest.raises(ValueError):
            self.gm().packed[0, 0] = 1

    def test_value_equality(self):
        gm = self.gm()
        assert gm == GeneMatrix(gm.packed.copy(), 3)
        assert gm != gm[1:]
        assert gm != GeneMatrix(gm.packed ^ np.uint8(0x80), 3)
        assert GeneMatrix(np.zeros((1, 1), np.uint8), 3) != GeneMatrix(np.zeros((1, 1), np.uint8), 4)
        assert gm != "gm"

    def test_concat_round_trip(self):
        gm = self.gm()
        assert GeneMatrix.concat(list(gm)) == gm
        assert GeneMatrix.concat([gm[3:], gm[:1], gm[1:3]]).packed.tolist() == (
            gm.packed[[3, 4, 0, 1, 2]].tolist())
        empty = gm[:0]
        assert GeneMatrix.concat([empty, gm, empty]) == gm

    def test_concat_checks(self):
        # one byte holds 2 and 6 bits alike: the bit lengths, not the widths, must agree
        with pytest.raises(LengthMismatchError, match="^different bit lengths: \\[2, 6\\]$"):
            GeneMatrix.concat([gs("01"), gs("010101"), gs("01")])
        with pytest.raises(EmptyInputError, match="^no rows to join$"):
            GeneMatrix.concat([])

    @pytest.mark.parametrize("packed,k", [
        (np.zeros((2, 2), dtype=np.uint8), 3),      # 6 bits need 1 byte
        (np.zeros((2, 1), dtype=np.int64), 3),      # not uint8
        (np.zeros(2, dtype=np.uint8), 3),           # not 2-D
        (np.array([[0b00000010]], dtype=np.uint8), 3),  # padding bit set
        (np.zeros((1, 1), dtype=np.uint8), 0),
    ])
    def test_rejects_malformed(self, packed, k):
        with pytest.raises(ValueError):
            GeneMatrix(packed, k)


class TestGeneSequence:
    """One packet's gene sequence: a one-row GeneMatrix."""

    def test_from_bits_round_trip(self):
        bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1]
        row = rows_of(bits)
        assert unpack_independently(row) == bits
        assert windows(row, 1) == row  # unpacked to counts and packed again

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GeneMatrix(np.zeros((1, 0), dtype=np.uint8), 0)

    def test_rejects_bad_packed_length(self):
        with pytest.raises(ValueError):
            GeneMatrix(np.zeros((1, 2), dtype=np.uint8), 1)

    def test_rejects_dirty_padding(self):
        # 2 bits used, 6 padding bits must stay zero
        with pytest.raises(ValueError):
            GeneMatrix(np.array([[0x01]], dtype=np.uint8), 1)

    def test_packed_density(self):
        for k in (1, 3, 4, 7, 230):
            assert gs("10" * k).packed.shape == (1, (2 * k + 7) // 8)
