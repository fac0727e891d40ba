"""PCM to Class-D PWM conversion with cost profiling and mapping exploration."""

from .audio_io import (ClockTooHigh, IoFailure, MalformedHeader,
                       MalformedStream, PcmStream, PwmBitstream, StreamTooLong,
                       UnsupportedFormat, WavReader, read_pwm, read_wav,
                       write_pwm, write_pwm_blocks)
from .chain import (BEHAVIORS, FirState, LineState, MoldState, convert,
                    convert_stream, design_interp_kernel, generate_pwm,
                    linearize, noise_shape, s0_condition, upsample2)
from .dse import (AllZeroSizes, BehaviorEstimate, CostModel, NoFeasibleOption,
                  PartitionOption, Scenario, TooManyBehaviors, UnknownBehavior,
                  enumerate_partitions, evaluate, hw_cost_share, load_scenario,
                  select)
from .profiler import (ProcessingElement, cycles, exec_time, load_pe_library,
                       meets_realtime, op_counts)
from .verification import (LengthMismatch, SpectrumReport, demodulate,
                           demodulate_stream, measure)

__version__ = "0.1.0"
