"""PCM to Class-D PWM conversion with cost profiling and mapping exploration."""

from .audio_io import (ClockTooHigh, IoFailure, MalformedHeader, PcmStream,
                       PwmBitstream, StreamTooLong, UnsupportedFormat, read_pwm,
                       read_wav, write_pwm)
from .chain import (BEHAVIORS, QuantizedStream, SampleStream, convert,
                    design_interp_kernel, generate_pwm, linearize, noise_shape,
                    s0_condition, upsample2)
from .dse import (AllZeroSizes, BehaviorEstimate, CostModel, NoFeasibleOption,
                  OptionComparison, PartitionOption, Scenario, TooManyBehaviors,
                  compare, enumerate_partitions, evaluate, hw_cost_share,
                  load_scenario, select)
from .profiler import (CounterOverflow, MissingWeight, OpRecorder,
                       ProcessingElement, UnknownBehavior, cycles, exec_time,
                       load_pe_library, meets_realtime)
from .verification import (LengthMismatch, MalformedStream, SpectrumReport,
                           demodulate, measure)

__version__ = "0.1.0"
