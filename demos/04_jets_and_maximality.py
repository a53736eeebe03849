# Jet systems: n+1 exact polynomials standing in for local sections.
# The rank of their degree-m products is bounded below by the span of the
# vanishing orders, with equality ("m-maximal") exactly when the system
# behaves like its monomial model -- and maximality transfers upward.

from fractions import Fraction as F

from spanlab import (
    JetSystem,
    adapted_basis,
    check_ideal_propagation,
    degree_genus_estimate,
    filtration_profile,
    is_m_maximal,
    monomial_system,
    perturbed_system,
    reparametrized_system,
    span,
    sym_power_dim,
    validate,
)

# Triangularize messy sections to read off the vanishing orders.
system = JetSystem(((F(1),), (F(0), F(1), F(1)), (F(0), F(1))))
seq, basis = adapted_basis(system)
print(f"adapted orders of (1, t+t^2, t): {seq.to_text()}")
print(f"adapted basis: {[list(map(str, b)) for b in basis]}")
print()

# A perturbation can only lose relations: its rank never drops below the span.
base = validate([0, 1, 2])
print(f"base {base.to_text()}, span at m=2: {span(base, 2)}")
for seed in range(4):
    system = perturbed_system(base, tail=2, seed=seed)
    dim = sym_power_dim(system, 2)
    tag = "maximal" if is_m_maximal(system, 2) else "strictly above"
    print(f"  seed {seed}: dim {dim} ({tag})")
print()

# Where the relations live in the weight filtration, level by level.
system = monomial_system(validate([0, 1, 2, 4]))
profile = filtration_profile(system, 2)
print(f"monomial (0,1,2,4) degree-2 relation space: dim {profile.kernel_dim},"
      f" by weight {profile.dims}")
print()

# A reparametrized model is 2-maximal with dense matrices; maximality then
# propagates to every degree and the relations grow one degree at a time.
seq = validate([0, 1, 2, 4])
system = reparametrized_system(seq, tail=1, seed=7)
report = check_ideal_propagation(system, 2, 5)
print(f"deformed {seq.to_text()}: dims by degree {report.quotient_dims}")
print(f"one-step generation: {report.one_step_generates}")
print(f"fitted (degree, genus): {degree_genus_estimate(system, 2, 5)}")
