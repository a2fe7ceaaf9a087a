"""Reed-Solomon codec and its streaming pearl."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wrappers import SPWrapper
from repro.ips.reed_solomon import (
    ReedSolomon,
    RSCode,
    RSDecoderPearl,
    RSError,
    generator_poly,
    rs_decoder_schedule,
)
from repro.ips.gf import poly_eval, gf_exp
from repro.lis.simulator import Simulation
from repro.lis.stream import burst_gaps
from repro.lis.system import System

SMALL = RSCode(15, 11)  # t = 2, fast for property tests
DVB = RSCode(204, 188)  # t = 8


class TestCodeParameters:
    def test_defaults(self):
        code = RSCode()
        assert (code.n, code.k, code.t) == (255, 239, 8)

    def test_invalid_rejected(self):
        with pytest.raises(RSError):
            RSCode(10, 10)
        with pytest.raises(RSError):
            RSCode(300, 200)
        with pytest.raises(RSError):
            RSCode(15, 10)  # odd parity count

    def test_generator_poly_roots(self):
        g = generator_poly(4)
        for i in range(4):
            assert poly_eval(g, gf_exp(i)) == 0
        assert poly_eval(g, gf_exp(4)) != 0


class TestEncoder:
    def test_systematic(self):
        rs = ReedSolomon(SMALL)
        msg = list(range(1, 12))
        cw = rs.encode(msg)
        assert cw[:11] == msg
        assert len(cw) == 15

    def test_codeword_has_zero_syndromes(self):
        rs = ReedSolomon(SMALL)
        cw = rs.encode([7] * 11)
        assert not any(rs.syndromes(cw))

    def test_zero_message(self):
        rs = ReedSolomon(SMALL)
        assert rs.encode([0] * 11) == [0] * 15

    def test_wrong_length_rejected(self):
        rs = ReedSolomon(SMALL)
        with pytest.raises(RSError):
            rs.encode([0] * 10)


class TestDecoder:
    @given(
        st.lists(st.integers(0, 255), min_size=11, max_size=11),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_corrects_up_to_t_errors(self, msg, data):
        rs = ReedSolomon(SMALL)
        cw = rs.encode(msg)
        n_errors = data.draw(st.integers(0, SMALL.t))
        positions = data.draw(
            st.lists(
                st.integers(0, SMALL.n - 1),
                min_size=n_errors,
                max_size=n_errors,
                unique=True,
            )
        )
        corrupted = list(cw)
        for pos in positions:
            corrupted[pos] ^= data.draw(st.integers(1, 255))
        decoded, found = rs.decode(corrupted)
        assert decoded == cw
        assert found == len(positions)

    def test_clean_word_zero_errors(self):
        rs = ReedSolomon(SMALL)
        cw = rs.encode(list(range(11)))
        decoded, n = rs.decode(cw)
        assert decoded == cw
        assert n == 0

    def test_burst_error_correction(self):
        rs = ReedSolomon(DVB)
        random.seed(1)
        msg = [random.randrange(256) for _ in range(188)]
        cw = rs.encode(msg)
        corrupted = list(cw)
        for pos in range(50, 58):  # 8-symbol burst = t
            corrupted[pos] ^= 0xA5
        decoded, n = rs.decode(corrupted)
        assert decoded == cw
        assert n == 8

    def test_beyond_capability_detected(self):
        rs = ReedSolomon(SMALL)
        cw = rs.encode([1] * 11)
        corrupted = list(cw)
        random.seed(5)
        for pos in random.sample(range(15), 5):  # t = 2
            corrupted[pos] ^= random.randrange(1, 256)
        with pytest.raises(RSError):
            rs.decode(corrupted)

    def test_wrong_length_rejected(self):
        rs = ReedSolomon(SMALL)
        with pytest.raises(RSError):
            rs.decode([0] * 14)


class TestSchedule:
    def test_shape(self):
        schedule = rs_decoder_schedule(SMALL, decode_run=10)
        stats = schedule.stats()
        assert stats.ports == 3
        assert stats.waits == SMALL.n + SMALL.k + 1
        assert stats.run == 10

    def test_wait_dominated_like_paper(self):
        schedule = rs_decoder_schedule(RSCode(255, 239), decode_run=1)
        stats = schedule.stats()
        assert stats.waits > 400
        assert stats.run == 1


class TestPearlInSystem:
    def _run(self, code, words, gaps=None, cycles=6000):
        rs = ReedSolomon(code)
        stream = []
        expected = []
        for msg in words:
            cw = rs.encode(msg)
            corrupted = list(cw)
            corrupted[3] ^= 0x55  # single error per word
            stream.extend(corrupted)
            expected.append(msg)
        pearl = RSDecoderPearl("rs", code, decode_run=8)
        shell = SPWrapper(pearl)
        system = System("rs_sys")
        system.add_patient(shell)
        system.connect_source("src", stream, shell, "sym_in", gaps=gaps)
        sym_sink = system.connect_sink(shell, "sym_out", "sym_snk")
        err_sink = system.connect_sink(shell, "err_out", "err_snk")
        Simulation(system).run(cycles)
        return sym_sink.received, err_sink.received, expected

    def test_streaming_decode(self):
        words = [list(range(11)), [5] * 11]
        symbols, errors, expected = self._run(SMALL, words)
        assert symbols == [s for msg in expected for s in msg]
        assert errors == [1, 1]

    def test_streaming_with_jitter(self):
        words = [list(range(11))]
        symbols, errors, expected = self._run(
            SMALL, words, gaps=burst_gaps(3, 2)
        )
        assert symbols == expected[0]
        assert errors == [1]

    def test_uncorrectable_flagged(self):
        rs = ReedSolomon(SMALL)
        cw = rs.encode([9] * 11)
        corrupted = list(cw)
        for pos in (0, 4, 8, 12):  # 4 > t = 2
            corrupted[pos] ^= 0x11
        pearl = RSDecoderPearl("rs", SMALL, decode_run=4)
        shell = SPWrapper(pearl)
        system = System("rs_bad")
        system.add_patient(shell)
        system.connect_source("src", corrupted, shell, "sym_in")
        system.connect_sink(shell, "sym_out", "sym_snk")
        err_sink = system.connect_sink(shell, "err_out", "err_snk")
        Simulation(system).run(3000)
        assert err_sink.received == [-1]
