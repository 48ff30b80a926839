"""Single-photon wavepacket densities, currents and optical-circuit transport."""

from .units import NATURAL, SI, UnitsConfig, units_for
from .spectral import (
    FieldSet,
    KGrid1D,
    SpectralAmplitude,
    assert_support_clear,
    evolve_free,
    extract_spectrum,
    localized_state,
    make_gaussian_state,
    photon_number,
    scalar_product,
    single_mode_state,
    synthesize_fields,
)
from .density import (
    DensityField,
    continuity_residual,
    current_field,
    density_field,
    localized_density_1d,
    localized_density_1d_boxsum,
    localized_density_3d,
    localized_density_3d_profile,
    positive_frequency_density,
    shell_mass_fraction,
    tail_mass,
)
from .fock import (
    FockState,
    MixMatrix2,
    ModeIndex,
    apply_annihilation,
    apply_creation,
    apply_mode_phase,
    basis_state,
    commutator_residual,
    inner_product,
    n_photon_state,
    number_expectation,
    total_number_expectation,
    two_mode_mix,
    vacuum,
)
from .optics import (
    BeamSplitter,
    DielectricInterface,
    Medium,
    MediumSegment,
    Mirror,
    MomentumReport,
    PhaseShifter,
    fresnel_interface,
    interface_budget,
    mirror_momentum_kick,
    momentum_report,
    propagate_in_medium,
    refractive_index,
)
from .circuit import (
    Element,
    Ledger,
    Netlist,
    PulseState,
    coincidence_probability,
    load_netlist,
    mach_zehnder_netlist,
    netlist_from_json,
    outcome_probabilities,
    run_circuit,
    sample_outcomes,
    validate,
)

__version__ = "0.1.0"
