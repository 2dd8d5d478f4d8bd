"""Local correlation model: state inversion and Monte Carlo pricing."""
