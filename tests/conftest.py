import numpy as np
from hypothesis import HealthCheck, settings

from gtlab.torus import nodes, write_csv

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def write_field(path, values) -> None:
    """Write ``values`` as a file: field, the rows (x_j, value) at the nodes of their grid."""
    write_csv(path, ["x", "value"], np.column_stack([nodes(len(values)), values]))
