"""Parameter containers for the model and its regularization knobs."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class PhysParams:
    """Constitutive constants.

    mu, lam : shear and bulk viscosity (mu > 0, lam + 2 mu / 3 >= 0)
    gamma : adiabatic exponent of the elastic pressure rho^gamma (> 3/2)
    gas_const : coefficient of the thermal pressure R rho theta (> 0)
    cond_floor : conductivity prefactor, kappa = floor * (1 + theta^alpha) (> 0)
    cond_growth : conductivity growth exponent alpha (>= 2)
    penalty_scale : director penalty length sigma0 (> 0)
    elastic_coupling : weight of the director stress/energy (default 1)
    relax_rate : director relaxation rate (default 1, must be > 0)
    """

    mu: float = 1.0
    lam: float = 0.0
    gamma: float = 2.0
    gas_const: float = 1.0
    cond_floor: float = 1.0
    cond_growth: float = 2.0
    penalty_scale: float = 1.0
    elastic_coupling: float = 1.0
    relax_rate: float = 1.0

    def validate(self):
        if not self.mu > 0:
            raise ValidationError("mu must be positive")
        if self.lam + 2.0 * self.mu / 3.0 < 0:
            raise ValidationError("lam + 2*mu/3 must be nonnegative")
        if not self.gamma > 1.5:
            raise ValidationError("gamma must exceed 3/2")
        if not self.gas_const > 0:
            raise ValidationError("gas_const must be positive")
        if not self.cond_floor > 0:
            raise ValidationError("cond_floor must be positive")
        if self.cond_growth < 2:
            raise ValidationError("cond_growth must be at least 2")
        if not self.penalty_scale > 0:
            raise ValidationError("penalty_scale must be positive")
        if not self.elastic_coupling > 0:
            raise ValidationError("elastic_coupling must be positive")
        if not self.relax_rate > 0:
            raise ValidationError("relax_rate must be positive")
        return self


@dataclass(frozen=True)
class RegParams:
    """Regularization knobs: artificial mass diffusion ``eps``, artificial
    pressure weight ``delta`` and exponent ``beta``, and the number of
    retained velocity modes ``n_modes``."""

    eps: float = 0.0
    delta: float = 0.0
    beta: float = 5.0
    n_modes: int = 8

    def validate(self, gamma):
        if self.eps < 0:
            raise ValidationError("eps must be nonnegative")
        if not 0 <= self.delta <= 1:
            raise ValidationError("delta must lie in [0, 1]")
        floor = max(4.0, gamma)
        if not self.beta > floor:
            raise ValidationError(f"beta must exceed max(4, gamma) = {floor}")
        if self.n_modes < 1:
            raise ValidationError("n_modes must be at least 1")
        return self
