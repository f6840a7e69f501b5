"""gsc: compile connected graphs into verified parity-check measurement
schedules and qubit placements for a 2-row surface-code patch layout."""

from .compiler import CompilationResult, CompileOptions, VerificationError, compile_graph
from .graph import generate, is_connected

__version__ = "0.1.0"
