"""Exception hierarchy shared by all subpackages."""


class GaugeMpsError(Exception):
    """Base class for all library errors."""


# --- group validation ---

class GroupError(GaugeMpsError):
    pass


class NonAssociative(GroupError):
    def __init__(self, a, b, c):
        self.triple = (a, b, c)
        super().__init__(f"multiplication table not associative at triple {(a, b, c)}")


class NoIdentity(GroupError):
    def __init__(self):
        super().__init__("multiplication table has no two-sided identity")


class MissingInverse(GroupError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element} has no inverse")


# --- representations ---

class RepError(GaugeMpsError):
    pass


class NotARep(RepError):
    pass


class NonUnitary(RepError):
    pass


class GroupMismatch(RepError):
    pass


class MultiplierMismatch(RepError):
    pass


class IncompleteCatalog(RepError):
    pass


class BadMultiplier(RepError):
    pass


# --- tensors ---

class TensorError(GaugeMpsError):
    pass


class DimMismatch(TensorError):
    pass


class SizeLimit(TensorError):
    def __init__(self, requested, cap):
        self.requested = requested
        self.cap = cap
        super().__init__(f"contraction size {requested} exceeds cap {cap}")


class NumericalDegeneracy(TensorError):
    def __init__(self, message, gap=None):
        self.gap = gap
        super().__init__(message if gap is None else f"{message} (gap {gap:.3e})")


class NotEquivalent(TensorError):
    pass


class GaugeNotFound(TensorError):
    pass


class NotNormal(TensorError):
    pass


# --- symmetry analysis ---

class SymmetryError(GaugeMpsError):
    pass


class ExtractionDegenerate(SymmetryError):
    pass


class NotDecomposable(SymmetryError):
    pass


class BadAlgebra(SymmetryError):
    pass


# --- constructors ---

class ConstructionError(GaugeMpsError):
    pass


class ZeroByWignerEckart(ConstructionError):
    def __init__(self, label):
        self.label = label
        super().__init__(
            f"physical irrep {label!r} does not appear in the virtual product decomposition"
        )


class MixedCohomology(ConstructionError):
    pass


class BadSpinSet(ConstructionError):
    pass


# --- CLI / IO ---

class ParseError(GaugeMpsError):
    def __init__(self, path, pointer, message):
        self.path = path
        self.pointer = pointer
        super().__init__(f"{path}: {pointer}: {message}")


class SchemaError(GaugeMpsError):
    pass
