"""Exception hierarchy shared across the package."""


class XviewError(Exception):
    """Base class for every error this package raises deliberately."""


class MalformedXml(XviewError):
    """Input text is not well-formed XML."""


class UnsupportedFeature(XviewError):
    """Input uses XML constructs outside the supported element/text subset."""


class QuerySyntaxError(XviewError):
    """A view definition or update statement failed to parse."""


class DuplicateVariable(QuerySyntaxError):
    pass


class DuplicateReturnName(QuerySyntaxError):
    """Two return expressions would expose the same last element name."""


class UnboundVariable(QuerySyntaxError):
    pass


class NonDistinctPathNames(QuerySyntaxError):
    """A query path repeats an element name."""


class LevelMismatch(QuerySyntaxError):
    """A view-level statement was used where a source-level one is required,
    or the other way around."""


class CyclicBinding(XviewError):
    """Defensive: a variable binding chain loops back on itself."""


class UnresolvableVariable(XviewError):
    pass


class UnknownDocument(XviewError):
    """A doc(...) reference names a document the store does not hold."""


class TupleBudgetExceeded(XviewError):
    """A for-clause would enumerate more tuples at one binding level than
    the tuple budget allows (``evaluator.TUPLE_BUDGET``)."""


class RootLabelMismatch(XviewError):
    """The first name of a rooted path differs from the stored root label."""


class UnmappableName(XviewError):
    """A view path's pivot name matches no return expression."""


class TargetIsRoot(XviewError):
    """An update tried to delete a document or view root."""


class TargetNotElement(XviewError):
    """An insertion targeted a text leaf, which cannot hold child trees."""
