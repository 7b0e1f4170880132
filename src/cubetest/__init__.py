"""cubetest: property testing for bounded real-valued functions on the
Boolean hypercube, with exact brute-force oracles at desk scale."""

from .tables import (
    CubePoint,
    FunctionTable,
    QueryOracle,
    lp_distance,
    make_counting_oracle,
    read_table,
    walsh_hadamard,
    write_table,
)
from .influence import (
    closest_junta,
    estimate_inf_mask,
    influence_exact,
    influence_fourier,
    junta_projection,
)
from .valuations import (
    ValuationSpec,
    ViolationWitness,
    check_additive,
    check_self_bounding,
    check_subadditive,
    check_submodular,
    check_unit_demand,
    gen,
    make_far_instance,
    random_spec,
)
from .cores import CoreSet, CoreTable, dist_core_to_set, enumerate_cores, lift_core
from .tester import TesterConfig, TesterReport, lp_epsilon_map, run_tester
from .bench import ExperimentPlan, ExperimentSummary, certify, run_plan, wilson_halfwidth

__version__ = "0.1.0"
