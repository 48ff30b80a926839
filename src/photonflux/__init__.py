"""Single-photon wavepacket densities, currents and optical-circuit transport.

Each public name is imported from its module the first time it is used (PEP 562), so a
process loads only the modules it runs: ``photonflux.cli`` running ``density`` or
``localized`` never loads ``circuit``, ``optics`` or ``fock``.
"""

from importlib import import_module

# module -> the public names it exports
_EXPORTS = {
    "units": "NATURAL SI UnitsConfig units_for",
    "spectral": """FieldSet KGrid1D SpectralAmplitude assert_support_clear evolve_free extract_spectrum
        localized_state make_gaussian_state photon_number scalar_product single_mode_state synthesize_fields""",
    "density": """DensityField continuity_residual current_field density_field localized_density_1d
        localized_density_1d_boxsum localized_density_3d localized_density_3d_profile positive_frequency_density
        shell_mass_fraction tail_mass""",
    "fock": """FockState MixMatrix2 ModeIndex apply_annihilation apply_creation apply_mode_phase basis_state
        commutator_residual inner_product n_photon_state number_expectation total_number_expectation two_mode_mix
        vacuum""",
    "optics": """BeamSplitter DielectricInterface Medium MediumSegment Mirror MomentumReport PhaseShifter
        fresnel_interface interface_budget mirror_momentum_kick momentum_report propagate_in_medium
        refractive_index""",
    "circuit": """Element Ledger Netlist PulseState coincidence_probability load_netlist mach_zehnder_netlist
        netlist_from_json outcome_probabilities run_circuit sample_outcomes validate""",
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    """The public ``name``, imported from its module on first use and kept here."""
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE[name]}", __name__), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *_MODULE})
