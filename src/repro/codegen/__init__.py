"""Software synthesis backend: IR, code generation, C emission, execution."""

from .emit_c import CEmission, CNames, EmitOptions, emit_c
from .generator import (
    CodegenError,
    generate_program,
    generate_task_program,
    synthesize,
)
from .interpreter import (
    ActivationResult,
    ExecutionError,
    ProgramExecutor,
    TaskExecutor,
)
from .native import (
    NativeBuildError,
    NativeProgram,
    NativeTaskBackend,
    NativeUnavailableError,
    native_available,
    native_source,
    task_choice_branches,
)
from .ir import (
    Block,
    CallFragment,
    ChoiceIf,
    DecCount,
    FireTransition,
    Fragment,
    Guarded,
    IncCount,
    Program,
    TaskProgram,
)

__all__ = [
    # IR
    "Program",
    "TaskProgram",
    "Fragment",
    "Block",
    "FireTransition",
    "IncCount",
    "DecCount",
    "CallFragment",
    "Guarded",
    "ChoiceIf",
    # generation
    "CodegenError",
    "generate_task_program",
    "generate_program",
    "synthesize",
    # C emission
    "EmitOptions",
    "CEmission",
    "CNames",
    "emit_c",
    # native tier
    "NativeProgram",
    "NativeTaskBackend",
    "NativeBuildError",
    "NativeUnavailableError",
    "native_available",
    "native_source",
    "task_choice_branches",
    # execution
    "TaskExecutor",
    "ProgramExecutor",
    "ActivationResult",
    "ExecutionError",
]
