"""Fault injection, integrity layer, blast radius, and harness degradation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.ccrp.compressor import ProgramCompressor
from repro.ccrp.expanding_cache import ExpandingInstructionCache
from repro.compression.block import DEFAULT_LINE_SIZE, BlockCompressor
from repro.compression.histogram import byte_histogram
from repro.compression.huffman import HuffmanCode
from repro.core.metrics import METRICS
from repro.core.standard import standard_code
from repro.core.sweep import FailureReport, sweep, sweep_many
from repro.errors import ConfigurationError, IntegrityError, ReproError
from repro.faults import (
    FAULT_MODELS,
    FaultInjector,
    add_integrity,
    blast_baseline,
    blast_block_codec,
    blast_lzw,
    crc8,
    diff_lines,
    line_crcs,
    refill_survey,
    validate_fault_model,
    validate_integrity_policy,
)

from huffman_oracle import oracle_outcome

PROGRAM = bytes(range(256)) * 8  # 2 KiB, 64 lines, every byte value


def _codes():
    histogram = byte_histogram(PROGRAM)
    return {
        "traditional": HuffmanCode.from_frequencies(histogram),
        "bounded": HuffmanCode.from_frequencies(histogram, max_length=16),
        "preselected": standard_code(),
    }


class TestInjector:
    def test_same_seed_same_faults(self):
        data = bytes(range(64))
        for model in FAULT_MODELS:
            first = FaultInjector(7).inject(data, model)
            second = FaultInjector(7).inject(data, model)
            assert first == second

    def test_different_seeds_diverge(self):
        data = bytes(256)
        records = {FaultInjector(seed).inject(data, "bit_flip")[1] for seed in range(16)}
        assert len(records) > 1

    def test_fault_always_changes_data(self):
        data = bytes(64)
        injector = FaultInjector(3)
        for model in FAULT_MODELS:
            for _ in range(20):
                corrupted, record = injector.inject(data, model)
                assert corrupted != data
                assert len(corrupted) == len(data)
                # The record is a replayable description of the fault.
                assert record.apply(data) == corrupted

    def test_bit_flip_touches_one_bit(self):
        corrupted, record = FaultInjector(11).inject(bytes(32), "bit_flip")
        diff = [a ^ b for a, b in zip(bytes(32), corrupted)]
        changed = [d for d in diff if d]
        assert len(changed) == 1 and bin(changed[0]).count("1") == 1
        assert record.model == "bit_flip"

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_fault_model("gamma_ray")
        with pytest.raises(ConfigurationError):
            FaultInjector(1).inject(b"\x00" * 8, "gamma_ray")


class TestIntegrity:
    def test_crc8_known_properties(self):
        assert crc8(b"") == 0
        assert crc8(b"123456789") == 0xF4  # CRC-8/ATM check value

    def test_crc8_catches_every_single_bit_flip(self):
        data = bytes(range(32))
        golden = crc8(data)
        for byte_index in range(len(data)):
            for bit in range(8):
                mutated = bytearray(data)
                mutated[byte_index] ^= 1 << bit
                assert crc8(bytes(mutated)) != golden

    def test_policy_validation(self):
        for policy in ("strict", "detect", "off"):
            validate_integrity_policy(policy)
        with pytest.raises(ConfigurationError):
            validate_integrity_policy("maybe")

    def test_add_integrity_and_overhead(self):
        image = ProgramCompressor(standard_code()).compress(PROGRAM)
        assert image.line_crcs is None
        assert image.integrity_bytes == 0
        checked = add_integrity(image)
        assert checked.line_crcs == line_crcs(checked.blocks)
        assert checked.integrity_bytes == checked.line_count
        # One CRC byte per 32-byte line: the LAT's own 3.125% class.
        assert checked.integrity_overhead_ratio == pytest.approx(1 / 32)
        # Protection costs real stored bytes; the would-be quote on the
        # unprotected image matches what the protected one actually pays.
        assert checked.total_ratio_with_lat > image.total_ratio_with_lat
        assert image.total_ratio_with_integrity == pytest.approx(
            checked.total_ratio_with_lat
        )

    def test_compressor_integrity_flag(self):
        image = ProgramCompressor(standard_code(), integrity=True).compress(PROGRAM)
        assert image.line_crcs is not None
        assert len(image.line_crcs) == image.line_count


class TestExpandingCacheIntegrity:
    def _image_and_memory(self):
        image = ProgramCompressor(standard_code(), integrity=True).compress(PROGRAM)
        return image, image.memory_image()

    def _corrupt_code(self, image, memory, seed=5):
        lat_bytes = image.lat.storage_bytes
        region, _ = FaultInjector(seed).inject(memory[lat_bytes:], "bit_flip", "code")
        return memory[:lat_bytes] + region

    def test_clean_image_raises_no_events(self):
        image, _ = self._image_and_memory()
        cache, errors = refill_survey(image, "detect")
        assert cache.integrity_events == [] and errors == []

    def test_detect_records_and_continues(self):
        image, memory = self._image_and_memory()
        before = METRICS.counter("integrity.detected")
        cache, _ = refill_survey(image, "detect", self._corrupt_code(image, memory))
        assert len(cache.integrity_events) >= 1
        assert METRICS.counter("integrity.detected") > before

    def test_strict_raises_with_line_number(self):
        image, memory = self._image_and_memory()
        with pytest.raises(IntegrityError) as excinfo:
            refill_survey(image, "strict", self._corrupt_code(image, memory))
        assert excinfo.value.line_number is not None

    def test_lat_corruption_detected(self):
        image, memory = self._image_and_memory()
        lat_bytes = image.lat.storage_bytes
        region, _ = FaultInjector(9).inject(memory[:lat_bytes], "bit_flip", "lat")
        cache, _ = refill_survey(image, "detect", region + memory[lat_bytes:])
        assert cache.integrity_events

    def test_off_policy_ignores_corruption(self):
        image, memory = self._image_and_memory()
        cache = ExpandingInstructionCache(
            image, integrity="off", memory_image=self._corrupt_code(image, memory)
        )
        base = image.text_base
        for line in range(image.line_count):
            try:
                cache.read_line(base + line * image.line_size)
            except ReproError as error:
                assert not isinstance(error, IntegrityError)
        assert cache.integrity_events == []

    def test_strict_requires_crcs(self):
        image = ProgramCompressor(standard_code()).compress(PROGRAM)
        with pytest.raises(ConfigurationError):
            ExpandingInstructionCache(image, integrity="strict")


class TestBatchedRefillAttribution:
    """A corrupt blob must fail with *its own* line number, and only there.

    The pristine-store refill path serves lines from the image's one
    batched ``decode_lines`` pass.  An image rebuilt from corrupted
    storage (corrupt ``blocks``, original CRC table) used to poison that
    whole batch: refilling any *healthy* line J raised the corrupt blob
    K's bare ``CompressionError`` — no line number, wrong line, and the
    strict policy's ``IntegrityError`` for K never surfaced with its
    attribution.  Now the batch leaves K's slot empty and the scalar
    fallback attributes the failure to exactly the line that owns it.
    """

    def _corrupted_image(self):
        """An integrity image whose middle compressed block no longer decodes.

        The corrupt bytes replace the block data (same length, so the
        LAT layout still matches) while ``line_crcs`` keeps the pristine
        table — corruption-after-attestation, the case integrity exists
        for.  The mutation is searched deterministically until the
        decoder provably rejects it.
        """
        import dataclasses

        from repro.errors import CompressionError

        # Zero-heavy "program": compresses well under the preselected
        # code, so the image has real compressed blocks to corrupt.
        program = (bytes(range(0, 64, 2)) + bytes(32)) * 32
        image = ProgramCompressor(standard_code(), integrity=True).compress(program)
        compressed = [
            index for index, block in enumerate(image.blocks) if block.is_compressed
        ]
        assert compressed, "test program must produce compressed blocks"
        target = compressed[len(compressed) // 2]
        original = image.blocks[target].data
        for position in range(len(original)):
            for mask in (0xFF, 0x80, 0x01):
                mutated = bytearray(original)
                mutated[position] ^= mask
                try:
                    image.code.decode(bytes(mutated), image.line_size)
                except CompressionError:
                    blocks = list(image.blocks)
                    blocks[target] = dataclasses.replace(
                        blocks[target], data=bytes(mutated)
                    )
                    return dataclasses.replace(image, blocks=tuple(blocks)), target
        raise AssertionError("no mutation made the block undecodable")

    def test_strict_attributes_the_corrupt_line_only(self):
        image, target = self._corrupted_image()
        cache = ExpandingInstructionCache(image, integrity="strict")
        base = image.text_base
        for line in range(image.line_count):
            address = base + line * image.line_size
            if line == target:
                with pytest.raises(IntegrityError) as excinfo:
                    cache.read_line(address)
                assert excinfo.value.line_number == target
            else:
                # Healthy lines refill normally — the corrupt blob no
                # longer poisons the batch they are served from.
                assert len(cache.read_line(address)) == image.line_size

    def test_detect_mode_scalar_fallback_names_the_line(self):
        from repro.errors import CompressionError

        image, target = self._corrupted_image()
        cache = ExpandingInstructionCache(image, integrity="detect")
        base = image.text_base
        for line in range(image.line_count):
            address = base + line * image.line_size
            if line == target:
                # detect records the CRC event and hands the line on to
                # the decoder, whose failure carries the attribution.
                with pytest.raises(CompressionError, match=f"line {target}"):
                    cache.read_line(address)
            else:
                cache.read_line(address)
        assert [event[0] for event in cache.integrity_events] == [target]

    def test_expanded_lines_reports_corrupt_slot_as_none(self):
        image, target = self._corrupted_image()
        lines = image.expanded_lines()
        assert lines[target] is None
        healthy = [line for index, line in enumerate(lines) if index != target]
        assert all(line is not None for line in healthy)


class TestBlastRadius:
    def test_single_bit_flip_corrupts_exactly_one_line(self):
        """The golden property: one flipped bit, one damaged 32-byte line."""
        for name, code in _codes().items():
            injector = FaultInjector(1234)
            for _ in range(25):
                report = blast_block_codec(code, PROGRAM, injector, "bit_flip", name)
                assert report.blast_radius <= 1, (name, report.record)
                assert report.span <= 1
                assert report.detected

    def test_byte_fault_bounded_and_detected(self):
        code = standard_code()
        injector = FaultInjector(77)
        for _ in range(25):
            report = blast_block_codec(code, PROGRAM, injector, "byte")
            assert report.blast_radius <= 1

    def test_burst_bounded_by_straddled_blocks(self):
        from repro.faults.injector import DEFAULT_BURST_BYTES

        code = standard_code()
        injector = FaultInjector(42)
        for _ in range(25):
            report = blast_block_codec(code, PROGRAM, injector, "burst")
            assert report.blast_radius <= DEFAULT_BURST_BYTES

    def test_baseline_damage_is_bytes_touched(self):
        injector = FaultInjector(6)
        report = blast_baseline(PROGRAM, injector, "bit_flip")
        assert report.codec == "raw"
        assert report.blast_radius == 1
        assert not report.detected

    def test_lzw_is_not_line_bounded(self):
        injector = FaultInjector(2024)
        spans = [blast_lzw(PROGRAM, injector, "byte").span for _ in range(40)]
        assert max(spans) > 1  # corruption spreads past the faulted line

    def test_diff_counts_missing_tail_lines(self):
        golden = bytes(96)
        truncated = bytes(40)  # covers line 0, part of line 1
        assert diff_lines(golden, truncated) == (1, 2)


class TestCorruptedDecodeFuzz:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_corrupted_block_decode_terminates(self, data):
        """Decoding any corrupted bitstream returns bytes or raises a
        ReproError — it never hangs, never leaks a foreign exception, and
        gives the bit-walk oracle's bytes or error message."""
        codes = _codes()
        name = data.draw(st.sampled_from(sorted(codes)))
        code = codes[name]
        compressor = BlockCompressor(code)
        blocks = compressor.compress_program(PROGRAM[: 32 * 8])
        block = blocks[data.draw(st.integers(0, len(blocks) - 1))]
        mutation = data.draw(
            st.one_of(
                st.binary(min_size=0, max_size=len(block.data)),
                st.just(block.data[: data.draw(st.integers(0, len(block.data)))]),
            )
        )
        if not block.is_compressed:
            return
        expected = oracle_outcome(code, mutation, DEFAULT_LINE_SIZE)
        try:
            decoded = code.decode(mutation, DEFAULT_LINE_SIZE)
        except ReproError as error:
            assert str(error) == expected
            return
        assert decoded == expected
        assert len(decoded) == DEFAULT_LINE_SIZE


class TestHarnessDegradation:
    AXES = dict(cache_sizes=(512,), memories=("eprom",))

    def test_sweep_unknown_workload_graceful(self):
        result = sweep("no-such-program", **self.AXES)
        assert result.reports == ()
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert isinstance(failure, FailureReport)
        assert failure.workload == "no-such-program"
        assert "unknown workload" in failure.message
        assert "no-such-program" in failure.render()

    def test_sweep_strict_raises_annotated(self):
        with pytest.raises(ConfigurationError) as excinfo:
            sweep("no-such-program", strict=True, **self.AXES)
        assert "no-such-program" in str(excinfo.value)

    def test_sweep_many_partial_results_serial(self):
        result = sweep_many(["eightq", "no-such-program"], **self.AXES)
        assert len(result.reports) == 1
        assert len(result.failures) == 1
        assert result.failures[0].workload == "no-such-program"
        assert not result.ok

    def test_sweep_many_partial_results_parallel(self):
        result = sweep_many(["eightq", "no-such-program"], jobs=2, **self.AXES)
        assert len(result.reports) == 1
        assert len(result.failures) == 1
        assert result.failures[0].workload == "no-such-program"

    def test_sweep_many_strict_parallel_fails_fast(self):
        with pytest.raises(ConfigurationError) as excinfo:
            sweep_many(["eightq", "no-such-program"], jobs=2, strict=True, **self.AXES)
        assert "no-such-program" in str(excinfo.value)

    def test_failure_counters(self):
        before = METRICS.counter("sweep.failures")
        sweep("no-such-program", **self.AXES)
        assert METRICS.counter("sweep.failures") > before


class TestFaultStudyAndCLI:
    def test_smoke_study_properties_hold(self):
        from repro.experiments.fault_study import run_fault_study

        result = run_fault_study(programs=("eightq",), trials_per_case=2, seed=3)
        assert result.violations() == []
        table = result.render()
        assert "preselected" in table and "lzw" in table
        # Determinism: same seed reproduces the tables bit for bit.
        again = run_fault_study(programs=("eightq",), trials_per_case=2, seed=3)
        assert again == result

    def test_cli_smoke(self, capsys):
        from repro.tools.faults import main

        assert main(["--smoke", "--programs", "eightq"]) == 0
        out = capsys.readouterr().out
        assert "blast radius" in out and "Refill-path" in out

    def test_cli_strict_demo_fails_fast(self, capsys):
        from repro.tools.faults import main

        code = main(
            ["--trials", "1", "--programs", "eightq",
             "--inject-worker-failure", "--strict", "--jobs", "1"]
        )
        assert code == 1
        assert "failed fast" in capsys.readouterr().err

    def test_cli_output_file(self, tmp_path, capsys):
        from repro.tools.faults import main

        target = tmp_path / "faults.txt"
        assert main(["--trials", "1", "--programs", "eightq",
                     "--output", str(target)]) == 0
        assert "blast radius" in target.read_text()
