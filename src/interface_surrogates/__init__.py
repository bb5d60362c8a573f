"""Neural-network surrogates for PDEs with randomly perturbed interfaces.

The package covers the full workflow: interface geometry and domain
mapping, nominal-configuration meshes, mapped finite element solvers for
the elliptic and Helmholtz transmission problems, analytic oracles used to
validate them, a from-scratch dense network trained with Adam, and the
data-generation / training / sweep pipeline with its file formats and
command line front end.
"""

from .geometry import (
    BAND_CORE,
    BAND_FAR,
    BAND_INNER,
    BAND_OUTER,
    BAND_PML,
    DomainMap,
    GeometryError,
    InterfaceModel,
    basis,
    kink_hyperplane,
    map_forward,
    map_inverse,
    map_jacobian,
    max_shape_variation,
    mollifier,
    radius,
)
from .linalg import (
    NotConvergedError,
    NotFiniteError,
    SingularMatrixError,
    assemble_csr,
    cg_solve,
    lu_solve,
    nominal_factor,
)
from .mesh import (
    REGION_INNER,
    REGION_OUTER,
    REGION_PML,
    Mesh,
    MeshError,
    build_disk_mesh,
    build_square_mesh,
    check_mesh,
)
from .oracles import manufactured_poisson, radial_two_zone, scattering_series
from .pde import (
    EllipticProblem,
    HelmholtzProblem,
    ScalarField,
    SolverError,
    circle_points,
    evaluate_qoi,
    l2_error,
    probe_kink,
    spike_stats,
)
from .pipeline import (
    Dataset,
    ExperimentConfig,
    PipelineError,
    Workspace,
    gen_data,
    load_dataset,
    preset,
    run_experiment,
    sample_parameters,
    save_dataset,
    sweep,
    train_on_datasets,
)
from .plotting import fit_log_line, load_series_csv, render_plot, write_svg
from .surrogate import (
    AdamState,
    Mlp,
    TrainReport,
    adam_step,
    backward,
    default_widths,
    forward,
    init,
    load_network,
    loss,
    save_network,
    train,
)
from .validation import CheckResult, run_suites

__version__ = "0.1.0"
