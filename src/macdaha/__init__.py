"""Exact symbolic Macdonald polynomials, double affine Hecke algebra
polynomial representation, and Gelfand-Tsetlin trace reconstruction over
the rational-function field Q(q, t)."""

from .qfield import (CR_ONE, CR_ZERO, CoeffRat, DomainViolationError, LaurentQT,
                     UnitMono, clear_caches, poch_ratio, qfact, qfall, qfall_ratio, qnum, subst)
from .combinat import (format_signature, in_window, interlaces, interlacing_signatures,
                       is_dominant, parse_signature, rho, rho_tilde, shift)
from .npoly import NPoly
from .sympoly import (SymLaurent, e_sym, eval_sym, from_npoly,
                      m_sym, mono_shift, sym_to_json, to_npoly)
from .macops import (MacParams, eigenvalue, generic_params, mac_apply,
                     mac_generator_apply, macdonald_branch, macdonald_eigen,
                     macdonald_gt, macdonald_qk, psi_branch, symmetry_check)
from .indexops import (AdaptednessError, Box, IndexOpParams, index_apply,
                       is_adapted, jackson_inner, plain_apply, verify_adjoint)
from .daha import (DahaParams, act_T, act_T_inv, act_Y, act_Y_inv, act_e,
                   e_r_Y_apply, generic_daha_params, is_multiwheel,
                   p1_Yinv_apply, p1_Yinv_via_y, res_map, res_map_half)
from .intertwiner import (branch_reconstruct_qk, c_squared_chain, diag_coeff_sum,
                          ek_denominator, mat_elt, psi_qnum, trace_ratio, trace_reconstruct)
from .suites import (SUITES, list_suites, run_suite, verify_relations, verify_res_diff,
                     verify_res_intertwine)

__version__ = "0.1.0"
