"""FIR design and decimation-chain tests, including the pinned-order
FIR contract: its output bytes are pinned by sha256 on every shape, and
it agrees with ``np.convolve`` numerically (bitwise equality with
np.convolve is NOT promised — its accumulation order is a
build-dependent BLAS dot, which is exactly why the pinned order
replaced it)."""

import hashlib

import numpy as np
import pytest

from repro.dsp import (
    CicDecimator,
    DecimationChain,
    FirDecimator,
    design_cic_compensator,
    design_halfband,
    design_lowpass,
    freq_response,
    fs4_mixer_sequences,
    periodogram,
    sine,
)
from repro.dsp.decimate import fir_same_pinned
from repro.dsp.tones import coherent_frequency


class TestFirDesign:
    def test_lowpass_dc_gain_unity(self):
        taps = design_lowpass(63, 0.1, 1.0)
        assert np.sum(taps) == pytest.approx(1.0)

    def test_lowpass_passband_and_stopband(self):
        fs = 1.0
        taps = design_lowpass(101, 0.1, fs)
        h = np.abs(freq_response(taps, np.array([0.02, 0.3]), fs))
        assert h[0] == pytest.approx(1.0, abs=0.01)
        assert h[1] < 0.01

    def test_lowpass_guards(self):
        with pytest.raises(ValueError):
            design_lowpass(2, 0.1, 1.0)
        with pytest.raises(ValueError):
            design_lowpass(11, 0.6, 1.0)

    def test_halfband_alternate_zeros(self):
        taps = design_halfband(31)
        centre = 15
        for i in range(31):
            if i != centre and (i - centre) % 2 == 0:
                assert taps[i] == 0.0

    def test_halfband_length_guard(self):
        with pytest.raises(ValueError):
            design_halfband(30)

    def test_cic_compensator_flattens_droop(self):
        from repro.dsp.filters import _cic_droop

        taps = design_cic_compensator(33, cic_order=4, cic_rate=16)
        # The receiver band occupies only the bottom ~6% of the post-CIC
        # Nyquist range; require tight flatness there and reasonable
        # flatness across most of the design passband.
        freqs = np.linspace(0.01, 0.12, 12)
        comp = np.abs(freq_response(taps, freqs, 1.0))
        combined = comp * np.array([_cic_droop(f, 4, 16) for f in freqs])
        assert np.max(np.abs(20 * np.log10(combined))) < 0.5
        uncompensated = _cic_droop(0.12, 4, 16)
        assert abs(20 * np.log10(uncompensated)) > 0.5  # droop was real

    def test_compensator_odd_length_guard(self):
        with pytest.raises(ValueError):
            design_cic_compensator(32, 4, 16)


class TestCic:
    def test_dc_gain_normalised(self):
        cic = CicDecimator(rate=16, order=4)
        out = cic.process(np.ones(1024))
        assert out[-1] == pytest.approx(1.0, abs=1e-9)

    def test_decimation_length(self):
        cic = CicDecimator(rate=8, order=3)
        assert cic.process(np.zeros(800)).size == 100

    def test_raw_gain(self):
        assert CicDecimator(rate=16, order=4).gain == 16**4

    def test_guards(self):
        with pytest.raises(ValueError):
            CicDecimator(rate=1)
        with pytest.raises(ValueError):
            CicDecimator(rate=4, order=0)


class TestChain:
    def test_total_rate(self):
        chain = DecimationChain(osr=64, cic_rate=16)
        out = chain.process(np.zeros(64 * 100))
        assert out.size == pytest.approx(100, abs=1)

    def test_inband_tone_preserved(self):
        fs = 12e9
        chain = DecimationChain(osr=64)
        n = 64 * 512
        f = coherent_frequency(20e6, fs, n)
        out = chain.process(sine(n, fs, f, 1.0))
        spec = periodogram(out[32:], fs / 64)
        assert spec.tone_power(f) == pytest.approx(0.5, rel=0.15)

    def test_out_of_band_tone_suppressed(self):
        fs = 12e9
        chain = DecimationChain(osr=64)
        n = 64 * 512
        f = coherent_frequency(2e9, fs, n)
        out = chain.process(sine(n, fs, f, 1.0))
        assert float(np.mean(np.abs(out[64:]) ** 2)) < 1e-4

    def test_complex_stream(self):
        chain = DecimationChain(osr=64)
        out = chain.process(np.ones(6400) * (1 + 1j))
        assert np.iscomplexobj(out)

    def test_invalid_osr(self):
        with pytest.raises(ValueError):
            DecimationChain(osr=48, cic_rate=16)


def test_fs4_mixer_sequences():
    i, q = fs4_mixer_sequences(10)
    assert list(i[:4]) == [1.0, 0.0, -1.0, 0.0]
    assert list(q[:4]) == [0.0, -1.0, 0.0, 1.0]
    assert i.size == q.size == 10
    # I and Q are orthogonal.
    assert float(np.dot(i, q)) == 0.0


def test_fir_decimator_same_alignment():
    fir = FirDecimator(taps=np.array([0.25, 0.5, 0.25]), rate=2)
    out = fir.process(np.ones(64))
    assert out.size == 32
    assert out[5] == pytest.approx(1.0)


class TestMatrixEquivalence:
    """process_matrix must be bit-identical to process, row by row."""

    def rows(self, n_keys, n_samples, seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n_keys, n_samples))

    @pytest.mark.parametrize("shape", [(1, 512), (5, 512), (3, 500), (4, 333)])
    def test_cic_matrix_bit_identical(self, shape):
        cic = CicDecimator(rate=4, order=4)
        x = self.rows(*shape)
        out = cic.process_matrix(x)
        for row, got in zip(x, out):
            assert np.array_equal(cic.process(row), got)

    @pytest.mark.parametrize("shape", [(1, 256), (4, 255), (3, 77)])
    def test_fir_matrix_bit_identical(self, shape):
        fir = FirDecimator(taps=design_halfband(31), rate=2)
        x = self.rows(*shape)
        out = fir.process_matrix(x)
        for row, got in zip(x, out):
            assert np.array_equal(fir.process(row), got)

    def test_fir_strided_rows_match_contiguous(self):
        """Any row layout filters to the bits of a C-contiguous copy."""
        fir = FirDecimator(taps=design_halfband(31), rate=2)
        x = self.rows(4, 256, seed=4)
        for layout in (x[:, ::2], np.asfortranarray(x)):
            assert not layout.flags.c_contiguous
            assert np.array_equal(
                fir.process_matrix(layout),
                fir.process_matrix(np.ascontiguousarray(layout)),
            )

    @pytest.mark.parametrize(
        "shape",
        [
            (1, 64 * 32),       # one key
            (6, 64 * 32),       # plain batch
            (3, 64 * 32 + 17),  # record not a multiple of the OSR
            (2, 999),           # not a multiple of any stage rate
        ],
    )
    def test_chain_matrix_bit_identical(self, shape):
        chain = DecimationChain(osr=64)
        x = self.rows(*shape)
        out = chain.process_matrix(x)
        assert out.shape[0] == shape[0]
        for row, got in zip(x, out):
            assert np.array_equal(chain.process(row), got)

    def test_chain_matrix_complex(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 64 * 16)) + 1j * rng.standard_normal((3, 64 * 16))
        chain = DecimationChain(osr=64)
        out = chain.process_matrix(x)
        for row, got in zip(x, out):
            assert np.array_equal(chain.process(row), got)

    def test_empty_batch(self):
        chain = DecimationChain(osr=64)
        out = chain.process_matrix(np.empty((0, 64 * 16)))
        assert out.shape[0] == 0
        fir = FirDecimator(taps=design_halfband(31), rate=2)
        assert fir.process_matrix(np.empty((0, 128))).shape[0] == 0
        cic = CicDecimator(rate=4)
        assert cic.process_matrix(np.empty((0, 128))).shape[0] == 0

    def test_matrix_rejects_wrong_rank(self):
        chain = DecimationChain(osr=64)
        with pytest.raises(ValueError):
            chain.process_matrix(np.zeros(64 * 16))
        with pytest.raises(ValueError):
            FirDecimator(taps=design_halfband(31)).process_matrix(np.zeros(8))
        with pytest.raises(ValueError):
            CicDecimator(rate=4).process_matrix(np.zeros((2, 3, 4)))


#: Shapes covering the pinned-FIR branch structure: plain batches, rows
#: shorter than the taps (the out_n = max(n, m) branch), single-sample
#: rows, n == m, and odd row counts.
FIR_SHAPES = [
    (1, 256), (4, 255), (16, 512), (3, 77),
    (3, 7),    # taps longer than the sample row
    (5, 1),    # single-sample rows
    (2, 31),   # row length == tap count
    (7, 64),   # odd row count
]


#: sha256 (first 16 hex digits) of ``fir_same_pinned``'s output bytes
#: for each input of ``TestPinnedFir.pinned_inputs``.  Recorded on
#: x86-64 Linux (NumPy 2.4), where the engine kernel's former C FIR
#: produced the same bytes; they rest on NumPy's RNG streams and
#: IEEE-754 double arithmetic only.
PINNED_FIR_DIGESTS = {
    "1x256/31": "5327304a133e3284",
    "4x255/31": "3384dcffd56d107b",
    "16x512/31": "68498b0b7343bd91",
    "3x77/31": "348700201e3ff251",
    "3x7/31": "cbd4f68a282fe2e0",
    "5x1/31": "d0460641f0d9e89d",
    "2x31/31": "a6c6b2590e7343b7",
    "7x64/31": "7b8cc547e5eba35d",
    "1x256/33": "35c12b96fa8c124b",
    "4x255/33": "484789257849665c",
    "16x512/33": "54a01e933db7785b",
    "3x77/33": "0113827560afcbb1",
    "3x7/33": "da6c073783aa678e",
    "5x1/33": "afc96e4199617286",
    "2x31/33": "ef3e7f4fb57b97e3",
    "7x64/33": "d6ce014dc3548b88",
    "zero-lattice": "01fc623758839f4c",
}


class TestPinnedFir:
    """The pinned-order FIR primitive itself (module docstring)."""

    def rows(self, n_rows, n_samples, seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n_rows, n_samples))

    @pytest.mark.parametrize("shape", FIR_SHAPES)
    @pytest.mark.parametrize("n_taps", [31, 33])
    def test_matches_np_convolve_shape_and_values(self, shape, n_taps):
        """Same 'same' alignment and output shape as np.convolve, equal
        to a few ULPs (bitwise only the pinned order is promised)."""
        taps = (
            design_halfband(n_taps)
            if n_taps % 4 == 3
            else design_cic_compensator(n_taps, 4, 16)
        )
        x = self.rows(*shape)
        got = fir_same_pinned(x, taps)
        expected = np.stack(
            [np.convolve(row, taps, mode="same") for row in x]
        )
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)

    def pinned_inputs(self):
        """``(name, rows, taps)`` for every pinned digest.  Uniform
        draws (integer-to-double arithmetic, no libm call) rather than
        designed taps, whose windows go through the platform's ``cos``."""
        for n_taps in (31, 33):
            for shape in FIR_SHAPES:
                rng = np.random.default_rng([*shape, n_taps])
                taps = rng.uniform(-1.0, 1.0, n_taps)
                yield (f"{shape[0]}x{shape[1]}/{n_taps}",
                       rng.uniform(-1.0, 1.0, shape), taps)
        # Mixer-style zero lattice: exact zeros of both signs, a run of
        # negative zeros longer than the taps, and every other tap zero,
        # so many outputs sum zero products alone.  The fold starts at
        # +0.0 and accumulates zero-padded and exactly-zero terms, never
        # skipping them; the digest pins the signs of those zeros too.
        rng = np.random.default_rng(9)
        x = rng.uniform(-1.0, 1.0, (2, 64)) * np.tile([1.0, 0.0, -1.0, 0.0], 16)
        x[1, 8:56] = -0.0
        taps = rng.uniform(0.0, 1.0, 31)
        taps[1::2] = 0.0
        yield "zero-lattice", x, taps

    def test_output_bytes_pinned(self):
        """The pinned order's bits themselves, not only agreement with
        another implementation: any change to the summation order, the
        padding or the alignment moves a digest."""
        digests = {
            name: hashlib.sha256(fir_same_pinned(x, taps).tobytes())
            .hexdigest()[:16]
            for name, x, taps in self.pinned_inputs()
        }
        assert digests == PINNED_FIR_DIGESTS

    def test_empty_batch_and_empty_rows(self):
        taps = design_halfband(31)
        out = fir_same_pinned(np.empty((0, 128)), taps)
        assert out.shape == (0, 128)
        # Taps dominate the empty batch's output length too.
        assert fir_same_pinned(np.empty((0, 7)), taps).shape == (0, 31)
        with pytest.raises(ValueError):
            fir_same_pinned(np.empty((2, 0)), taps)
        with pytest.raises(ValueError):
            fir_same_pinned(np.zeros((2, 8)), np.empty(0))

    def test_taps_longer_than_row_through_decimator(self):
        """FirDecimator end to end on the out_n = max(n, m) branch."""
        fir = FirDecimator(taps=design_halfband(31), rate=2)
        x = self.rows(3, 7, seed=11)
        out = fir.process_matrix(x)
        assert out.shape == (3, 16)  # 31-long 'same' output, rate 2
        for row, got in zip(x, out):
            assert np.array_equal(fir.process(row), got)
