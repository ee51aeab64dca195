"""Encoder tests: ten-bit codes, five-bit majorities, gene sequences."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bicsi.encoding import (
    ENCODER_OVERFLOW,
    GeneMatrix,
    GeneSequence,
    encode10,
    encode_matrix,
    encode_row,
    majority5,
    reencode2,
)

from bicsi.errors import EmptyInputError, LengthMismatchError
from bicsi.ingest import AmplitudeMatrix

from conftest import gs


def bits_str(code) -> str:
    return "".join(str(b) for b in code)


class TestEncode10:
    def test_small_value(self):
        assert bits_str(encode10(5)) == "0000000101"

    def test_overflow_collapses_to_zero(self):
        assert bits_str(encode10(1024)) == "0000000000"
        assert bits_str(encode10(5000)) == "0000000000"

    def test_max_in_range(self):
        assert bits_str(encode10(1023)) == "1111111111"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode10(-1)

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            encode10(1.5)

    def test_exhaustive_branch_rule(self):
        for ap in range(2048):
            expected = format(ap, "010b") if ap < ENCODER_OVERFLOW else "0" * 10
            assert bits_str(encode10(ap)) == expected

    def test_decode_round_trip(self):
        for ap in range(2048):
            decoded = int(bits_str(encode10(ap)), 2)
            assert decoded == (ap if ap < ENCODER_OVERFLOW else 0)


class TestMajority5:
    def test_two_ones_is_zero(self):
        assert majority5((0, 0, 1, 0, 1)) == 0

    def test_three_ones_is_one(self):
        assert majority5((1, 1, 1, 0, 0)) == 1

    def test_all_zero(self):
        assert majority5((0, 0, 0, 0, 0)) == 0

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            majority5((1, 0, 1))

    def test_non_binary(self):
        with pytest.raises(ValueError):
            majority5((0, 2, 0, 0, 0))

    def test_monotone_exhaustive(self):
        # flipping any 0 to 1 never drops the vote
        for value in range(32):
            bits = [(value >> (4 - i)) & 1 for i in range(5)]
            before = majority5(bits)
            for i in range(5):
                if bits[i] == 0:
                    flipped = list(bits)
                    flipped[i] = 1
                    assert majority5(flipped) >= before


class TestReencode2:
    def test_sparse_halves(self):
        assert reencode2(encode10(5)) == (0, 0)

    def test_both_halves_majority(self):
        assert reencode2((1, 1, 1, 0, 0, 0, 0, 1, 1, 1)) == (1, 1)

    def test_all_ones(self):
        assert reencode2((1,) * 10) == (1, 1)

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            reencode2((1, 0, 1))


class TestEncodeRow:
    def test_extremes(self):
        assert encode_row([1023, 0]).bits().tolist() == [1, 1, 0, 0]

    def test_all_overflow_row(self):
        seq = encode_row([1024] * 7)
        assert seq.bits().tolist() == [0] * 14

    def test_forty(self):
        # 40 = 0000101000; each half holds one set bit
        assert encode_row([40]).bits().tolist() == [0, 0]

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError):
            encode_row([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_row([3, -1])

    @given(st.lists(st.integers(0, 2047), min_size=1, max_size=40))
    def test_matches_scalar_composition(self, amplitudes):
        vectorized = encode_row(np.asarray(amplitudes)).bits().tolist()
        scalar = []
        for ap in amplitudes:
            scalar.extend(reencode2(encode10(ap)))
        assert vectorized == scalar

    def test_matches_scalar_composition_exhaustive(self):
        for ap in range(2048):
            assert tuple(encode_row([ap]).bits().tolist()) == reencode2(encode10(ap))


class TestEncodeMatrix:
    def test_shape_contract(self):
        seqs = encode_matrix(np.zeros((3, 5), dtype=np.int64))
        assert len(seqs) == 3
        assert all(s.bit_length == 10 for s in seqs)

    def test_identical_rows_identical_sequences(self):
        m = np.tile(np.arange(8, dtype=np.int64), (4, 1))
        seqs = encode_matrix(m)
        assert len({s.packed for s in seqs}) == 1

    def test_overflow_values_collapse_alike(self):
        a = np.array([[1024, 33, 700]], dtype=np.int64)
        b = np.array([[5000, 33, 700]], dtype=np.int64)
        assert encode_matrix(a)[0] == encode_matrix(b)[0]

    def test_deterministic(self):
        m = np.arange(24, dtype=np.int64).reshape(4, 6) * 37 % 1100
        first = [s.packed for s in encode_matrix(m)]
        second = [s.packed for s in encode_matrix(m)]
        assert first == second

    @given(st.integers(1, 12).flatmap(lambda k: st.lists(
        st.lists(st.integers(0, 2047), min_size=k, max_size=k), min_size=1, max_size=20)))
    def test_rows_match_encode_row(self, rows):
        m = np.asarray(rows, dtype=np.int64)
        gm = encode_matrix(m)
        assert len(gm) == len(m)
        for i in range(len(m)):
            assert gm[i] == encode_row(m[i])
            scalar = [b for ap in rows[i] for b in reencode2(encode10(ap))]
            assert gm[i].bits().tolist() == scalar

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
        expected = [b for v in values for b in reencode2(encode10(v))]
        assert trusted[0].bits().tolist() == expected

    @pytest.mark.parametrize("raw", [
        np.array([[3, -1]]),
        np.array([[3.0, 1.0]]),
        np.array([[True, False]]),
    ])
    def test_raw_array_checks_stay(self, raw):
        with pytest.raises(ValueError):
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
        assert gm[-1] == rows[4]
        tail = gm[1:4]
        assert isinstance(tail, GeneMatrix)
        assert list(tail) == rows[1:4]
        with pytest.raises(IndexError):
            gm[5]

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

    def test_from_sequences_round_trip(self):
        gm = self.gm()
        assert GeneMatrix.from_sequences(gm) is gm
        packed = GeneMatrix.from_sequences(list(gm))
        assert np.array_equal(packed.packed, gm.packed)
        assert packed.subcarrier_count == gm.subcarrier_count

    def test_from_sequences_checks(self):
        with pytest.raises(LengthMismatchError, match="sequence 1"):
            GeneMatrix.from_sequences([gs("01"), gs("0101")])
        with pytest.raises(EmptyInputError):
            GeneMatrix.from_sequences([])

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
    def test_from_bits_round_trip(self):
        bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1]
        assert GeneSequence.from_bits(bits).bits().tolist() == bits

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            GeneSequence.from_bits([1, 0, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GeneSequence.from_bits([])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            GeneSequence.from_bits([0, 2])

    def test_rejects_bad_packed_length(self):
        with pytest.raises(ValueError):
            GeneSequence(packed=b"\x00\x00", subcarrier_count=1)

    def test_rejects_dirty_padding(self):
        # 2 bits used, 6 padding bits must stay zero
        with pytest.raises(ValueError):
            GeneSequence(packed=b"\x01", subcarrier_count=1)

    def test_packed_density(self):
        for k in (1, 3, 4, 7, 230):
            seq = gs("10" * k)
            assert len(seq.packed) == (2 * k + 7) // 8
