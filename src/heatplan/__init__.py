"""Heat-diffusion score fields and annealed Langevin multi-robot planning."""

from .errors import GenerationError, HeatplanError, MapFormatError, ParameterError
from .gridmap import (
    FAMILIES,
    RobotSpec,
    Scenario,
    SemanticRegion,
    WorldMap,
    cell_center,
    decode_map,
    decode_scenario,
    empty_map,
    encode_map,
    encode_scenario,
    generate_map,
    is_free,
    load_map,
    load_scenario,
    resolve_goal_regions,
    save_map,
    save_scenario,
    world_to_cell,
)
from .heatfield import (
    FieldCache,
    HeatState,
    NoiseSchedule,
    ScoreField,
    build_schedule,
    build_score_field,
    init_heat,
    interpolate,
    sample_heat,
    score_fields,
    solve_to_times,
)
from .planner import (
    PlannerConfig,
    PlanResult,
    Trajectory,
    interrobot_guidance,
    langevin_step,
    plan,
    result_to_dict,
    result_to_json,
    validate_plan,
)
from .bench import (
    SuiteReport,
    SuiteSpec,
    aggregate_records,
    flood_fill,
    generate_suite,
    run_one,
    run_suite,
    write_records,
    write_report,
)
from .render import RenderSpec, figure_name, render_svg

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
