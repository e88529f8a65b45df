"""Exact computation of canonical bases, leading matrix coefficients, the
asymptotic ring and Graham-Lehrer cellular structures for Iwahori-Hecke
algebras of finite Coxeter groups, over any positive weight function and
coordinate-priority monomial order."""

from .asymptotic import AsymptoticRing, Report
from .cellular import (CellDatum, build_cell_datum, specialize_datum,
                       verify_bimodule_identity, verify_cell_datum, verify_phi,
                       verify_specialized)
from .coxeter import (CoxeterSystem, ElementTable, WeightFunction, equal_weights,
                      universal_weights, validate_weights)
from .errors import ComputationError, HeckecellError, InputError, VerificationError
from .fields import RealCyclotomicField
from .hecke import HeckeAlgebra
from .matrices import KMatrix
from .reps import (LeadingTensor, MatrixRep, SchurData, balance, builtin_family,
                   dihedral_rep, gram_average, index_rep, invariant_gram,
                   is_balanced, leading_tensor, load_rep, one_dim_rep,
                   rep_from_dict, schur_data, seminormal_rep, sign_rep,
                   verify_schur_relations)
from .scalars import LaurentFraction, LaurentPoly, MonomialOrder, natural_order

__version__ = "0.1.0"
