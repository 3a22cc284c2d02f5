"""The names ``confgeo`` exports are its contract: a change to this list
is a deliberate change to the public interface."""
import ast
import inspect
import pathlib
import types

import confgeo

PUBLIC_NAMES = [
    "ArcLengthResult",
    "BasePointMismatchError",
    "Bivector",
    "Chart",
    "ChartSingularityError",
    "CheckReport",
    "ConfgeoError",
    "CurvatureBundle",
    "DegenerateMetricError",
    "GeodesicState",
    "ImmersionError",
    "MetricField",
    "RandomMetricSpec",
    "SpiralReport",
    "StepSizeError",
    "Trajectory",
    "UnparamState",
    "accel_wedge_coeff",
    "arc_length",
    "bivector_covariant_derivative",
    "cartesian_chart",
    "check_lemma1",
    "check_lemma2",
    "check_lemma3",
    "check_lemma5",
    "check_proposition",
    "christoffel",
    "circle_state",
    "curvature",
    "cutoff_chi",
    "cylindrical_chart",
    "detect_spiral",
    "euclidean_metric",
    "example_metric",
    "flat_cylindrical_metric",
    "flat_polar_metric",
    "from_unparametrized",
    "h_profile",
    "integrate",
    "k_exact",
    "kulkarni_nomizu",
    "m_covariant",
    "metric_derivatives",
    "polar_chart",
    "polynomial_metric",
    "propertime_rhs",
    "random_gauge_state",
    "random_metric",
    "round_sphere_metric",
    "run_checks",
    "sphere_chart",
    "spiral_acceleration",
    "spiral_acceleration_dot",
    "spiral_point",
    "spiral_state",
    "spiral_tracking_run",
    "spiral_velocity",
    "t_star",
    "unparam_residual",
    "wedge",
    "wedge_form_residual",
]


def test_public_names_are_pinned():
    # Submodules are left out: which of them are attributes of the
    # package depends on what has been imported so far.
    names = sorted(
        name
        for name, value in vars(confgeo).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_integrate_parameters_are_pinned():
    # Every setting of an integration is one of these keywords; adding a
    # knob back is a deliberate change to this list.
    params = inspect.signature(confgeo.integrate).parameters
    assert list(params) == [
        "field",
        "initial",
        "s_span",
        "tol",
        "max_steps",
        "renormalize",
        "curvature_step",
        "stop",
    ]
    keyword_only = [p for p in params.values() if p.kind is p.KEYWORD_ONLY]
    assert [p.name for p in keyword_only] == list(params)[3:]


def test_arc_length_parameters_are_pinned():
    # The curve's velocity is the caller's: there is no finite-difference
    # fallback to select by leaving it out.
    params = inspect.signature(confgeo.arc_length).parameters
    assert list(params) == ["field", "curve", "t_span", "velocity", "tol"]
    keyword_only = [p for p in params.values() if p.kind is p.KEYWORD_ONLY]
    assert [p.name for p in keyword_only] == ["velocity", "tol"]
    assert params["velocity"].default is inspect.Parameter.empty


def test_example_metric_and_spiral_state_parameters_are_pinned():
    # The paper's curve is the only one: a curve parameter is a
    # deliberate change to these lists.
    assert list(inspect.signature(confgeo.example_metric).parameters) == ["chart"]
    assert list(inspect.signature(confgeo.spiral_state).parameters) == ["t", "dimension"]


def test_rhs_and_residual_parameters_are_pinned():
    # Each takes one state or a stack, with the caller's bundle as the
    # one keyword; the benchmark calls
    # propertime_rhs(metric, state, curvature_step=...).
    from confgeo.dynamics import unparam_residual_scale

    pinned = {
        confgeo.propertime_rhs: ["field", "state", "curvature_step", "bundle"],
        confgeo.wedge_form_residual: ["field", "state", "da", "bundle"],
        confgeo.unparam_residual: ["field", "state", "db", "bundle"],
        unparam_residual_scale: ["field", "state", "db", "bundle"],
    }
    for function, names in pinned.items():
        params = inspect.signature(function).parameters
        assert list(params) == names, function.__name__
        keyword_only = [p for p in params.values() if p.kind is p.KEYWORD_ONLY]
        assert [p.name for p in keyword_only] == ["bundle"], function.__name__
        assert params["bundle"].default is None, function.__name__
    assert inspect.signature(confgeo.propertime_rhs).parameters[
        "curvature_step"
    ].default is None


def test_polynomial_metric_parameters_are_pinned():
    # The dimension is the exponent table's width; the name is a keyword,
    # so a third positional argument is an error and not a name.
    params = inspect.signature(confgeo.polynomial_metric).parameters
    assert list(params) == ["exponents", "coefficients", "name"]
    assert params["name"].kind is inspect.Parameter.KEYWORD_ONLY


def test_every_private_function_is_used_in_the_package():
    # A module-level private function that nothing in the package refers
    # to outside its own body is dead code, or a test helper kept in the
    # package; either way it belongs elsewhere.
    package = pathlib.Path(confgeo.__file__).parent
    defined, referenced = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name
                if owner.startswith("_") and not owner.startswith("__"):
                    defined.append((path.name, owner))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    referenced.add((sub.id, path.name, owner))
                elif isinstance(sub, ast.Attribute):
                    referenced.add((sub.attr, path.name, owner))
    unused = [
        f"{module}:{name}"
        for module, name in defined
        if not any(
            ref == name and (where, owner) != (module, name)
            for ref, where, owner in referenced
        )
    ]
    assert unused == []
