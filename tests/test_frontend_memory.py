"""The front end frames and pitch-tracks one block of frames at a time, so its
memory is bounded however long the utterance is."""

import tracemalloc

import pytest

from prosolab.acoustics import PitchConfig, extract_f0, frame_audio
from prosolab.corpus_io import AudioBuffer

from conftest import RATE, sine

SHIFT = 0.005
WINDOW = 0.040
# Above what blocked framing and pitch tracking need (about 1.5 MiB for
# 10 s and 1.7 MiB for 60 s at 16 kHz, the per-frame outputs included, with
# no copy of the samples) and far below what one whole-utterance pass needs
# (about 65 MiB for 10 s, 390 MiB for 60 s).
CEILING = 2 * 2**20
# The only arrays that grow with the audio are the per-frame ones (RMS, loud
# frame indices, F0 values and flags), about 30 bytes a frame: 50 s more
# audio adds about 0.3 MiB.
GROWTH = 2**20
# Framing alone holds the per-frame RMS (94 KiB for 60 s at 16 kHz) and one
# block's squared span of samples (44 KiB); a gathered (64, win) copy of
# each block and the temporary it is gathered through would take 640 KiB.
FRAMING_CEILING = 2**19


def working_memory(seconds):
    """Peak bytes allocated by frame_audio and extract_f0 on a 16 kHz tone."""
    audio = AudioBuffer(sine(150.0, seconds, amp=0.3), RATE)
    tracemalloc.start()
    try:
        frames = frame_audio(audio, SHIFT, WINDOW)
        track = extract_f0(frames, PitchConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert track.valid.mean() > 0.9
    return peak


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_front_end_memory_does_not_grow_with_the_audio():
    short, long = working_memory(10.0), working_memory(60.0)
    assert max(short, long) < CEILING
    assert long - short < GROWTH


def test_framing_memory_is_the_rms_and_one_block():
    audio = AudioBuffer(sine(150.0, 60.0, amp=0.3), RATE)
    tracemalloc.start()
    try:
        frame_audio(audio, SHIFT, WINDOW)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < FRAMING_CEILING
