"""Every numerical threshold of the package, one name per role, with the
values the modules have always used.  Most are absolute; a relative one
says what it is relative to."""

PASS_TOL = 1e-9              # default residual at or below which a symmetry check passes
DECOMPOSE_TOL_FLOOR = 1e-9   # decompose-rep twirls with no tighter tolerance (its default)

# rank decisions: singular values relative to the largest, unless noted
RANK_CUTOFF = 1e-9           # spans, injectivity, invariant subspaces, su(2) highest weights
ALGEBRA_RANK_CUTOFF = 1e-10  # closure of the algebra generated by the Kraus matrices
ORBIT_RANK_CUTOFF = 1e-8     # orbit of an eigenvector under that algebra
SUPPORT_RANK_CUTOFF = 1e-10  # occupied physical space of a gauge tensor
WORD_RANK_CUTOFF = 1e-10     # word systems of extract_virtual_rep, relative to max(1, ||W||)
LEADING_ENTRY_CUTOFF = 1e-8  # smaller entries (relative) are skipped when fixing a phase or order

UNIT_CIRCLE_MARGIN = 1e-8    # |lambda| > rho (1 - margin) lies on the peripheral circle
NORMAL_RADIUS_FLOOR = 1e-8   # a tensor with a smaller transfer spectral radius is not normal
FIXED_POINT_CUTOFF = 1e-8    # a fixed point is definite when min eig > this * max eig

ZERO_FLOOR = 1e-12           # a tensor, leaf or pair component below this norm or radius is zero
SCALE_FLOOR = 1e-12          # smallest scale a relative weight comparison uses
COEFF_FLOOR = 1e-6           # MPV coefficients at N are compared against at least this ||t||_F^N
TRACE_ROUNDOFF = 1e-10       # a transfer-matrix trace within this of the sum of |terms| is round-off
DIVISION_FLOOR = 1e-300      # keeps the denominator of a relative residual nonzero

# agreement between two computations, and residuals of derived objects
MATCH_TOL = 1e-7             # relative mismatch of MPV coefficients or of copy weights
INVARIANCE_TOL = 1e-7        # invariant-subspace residual, relative to the largest Kraus norm
GAUGE_TOL = 1e-6             # a gauge: mixed transfer radius off 1, relative conjugation residual
EXTRACTION_RESIDUAL = 1e-6   # relative residual of a word system in extract_virtual_rep
RELATION_TOL = 1e-8          # relative residual of extracted X, Y in the tensor relations
GAUGE_ACTION_TOL = 1e-7      # R, L keep the occupied gauge space invariant and commute on it
BLOCK_CONSTANT_FLOOR = 1e-8  # a matched gauge-tensor block with a smaller constant is zero
SECTOR_FLOOR = 1e-8          # a nontrivial matter sector below this fraction of ||A|| is empty
SPAN_RESIDUAL = 1e-8         # the identity lies in span{B^j} up to this residual

# representations
REP_TOL = 1e-10              # unitarity, projectivity and triviality of given rep matrices
COMPUTED_REP_TOL = 1e-8      # the same for reps assembled from computed matrices
MULTIPLIER_TOL = 1e-8        # entrywise: two multipliers agree; a read-off one is a cocycle
PHASE_MODULUS_TOL = 1e-6     # |Tr(U(gh)^-1 U(g)U(h))| / dim lies this close to 1
INTERTWINER_TOL = 1e-8       # twirl eigenvalues this close to 1 span the intertwiners
BASIS_UNITARITY_TOL = 1e-7   # per dimension: ||U^dag U - 1|| of a decomposition basis
BLOCK_RESIDUAL_TOL = 1e-6    # per dimension: off-block residual of a decomposition

# su(2)
HERMITIAN_TOL = 1e-10        # relative ||H - H^dag|| accepted in a group element
GENERATOR_TOL = 1e-12        # Gauss generators: commutators, [R, L], Hermitian charges
SPIN_ROUNDING = 1e-12        # twice a requested spin lies this close to an integer
WEIGHT_MATCH = 1e-7          # Tz eigenvalues this close share a weight space
WEIGHT_ROUNDING = 1e-6       # a computed highest weight lies this close to a half-integer
CASIMIR_TOL = 1e-6           # Casimir residual of a highest-weight vector, vs max(1, ||v||)
