"""The front end frames and pitch-tracks one block of frames at a time, so its
memory is bounded however long the utterance is."""

import tracemalloc

import pytest

from prosolab.acoustics import PitchConfig, extract_f0, frame_audio
from prosolab.corpus_io import AudioBuffer

from conftest import RATE, sine

SHIFT = 0.005
WINDOW = 0.040
# Above what blocked framing and pitch tracking need (about 2.7 MiB at
# 16 kHz, the per-frame outputs included) and far below what one
# whole-utterance pass needs (about 65 MiB for 10 s, 390 MiB for 60 s).
CEILING = 4 * 2**20
# The only arrays that grow with the audio are the per-frame ones (RMS, loud
# frame indices, F0 values and flags), about 30 bytes a frame: 50 s more
# audio adds about 0.3 MiB.
GROWTH = 2**20


def working_memory(seconds):
    """Peak bytes allocated by frame_audio and extract_f0 on a 16 kHz tone,
    less the zero-padded copy of the samples that the frames view."""
    audio = AudioBuffer(sine(150.0, seconds, amp=0.3), RATE)
    tracemalloc.start()
    try:
        frames = frame_audio(audio, SHIFT, WINDOW)
        track = extract_f0(frames, PitchConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert track.valid.mean() > 0.9
    # frame_audio pads the float64 samples with one window of zeros each side
    padded = 8 * (len(audio.samples) + 2 * round(RATE * WINDOW))
    return peak - padded


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_front_end_memory_does_not_grow_with_the_audio():
    short, long = working_memory(10.0), working_memory(60.0)
    assert max(short, long) < CEILING
    assert long - short < GROWTH
