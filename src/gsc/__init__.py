"""gsc: compile connected graphs into verified parity-check measurement
schedules and qubit placements for a 2-row surface-code patch layout."""

from .compiler import (
    CompilationResult,
    CompileOptions,
    DisconnectedGraphError,
    VerificationError,
    compile_graph,
    verify_result,
)
from .graph import (
    Graph,
    GraphFormatError,
    GraphStats,
    from_adjacency_matrix,
    from_edge_list,
    generate,
    graph_stats,
    is_connected,
    load_graph,
    save_graph,
)
from .mapping import CutResult, Mapping, basic_mapping, karger_min_cut, mincut_mapping
from .scheduler import (
    AncillaBlock,
    Schedule,
    build_blocks,
    depth_lower_bound,
    schedule_first_fit,
    schedule_sweep,
    validate_schedule,
)
from .stabilizer import ReductionPlan, greedy_maximal_independent_set, reduce_generators
from .verify import (
    Tableau,
    VerifyReport,
    project_generator,
    stabilizer_generators,
    stabilizer_groups_equal,
    tableau_init,
    verify_compilation,
)

__version__ = "0.1.0"
