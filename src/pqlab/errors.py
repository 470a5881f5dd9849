"""Exception hierarchy shared by all pqlab modules."""


class PqlabError(Exception):
    """Base class for every error raised by this package."""


class DivisionByZero(PqlabError, ZeroDivisionError):
    """Inversion of zero or remainder by the zero polynomial."""


class DimensionError(PqlabError, ValueError):
    """Operands have incompatible dimensions or lengths."""


class RankError(PqlabError, ValueError):
    """Input does not have the rank the operation requires: a singular
    matrix to invert or to solve through, or a word outside a row space."""


class SupportError(PqlabError, ValueError):
    """Code support contains a root of the Goppa polynomial or a repeat."""


class DecodingFailure(PqlabError):
    """Received word is not within the guaranteed decoding radius."""


class NotInvertible(PqlabError, ValueError):
    """Ring element has no inverse for the requested modulus."""


class SamplingExhausted(PqlabError):
    """Rejection sampling failed to produce a valid draw in the retry budget."""


class MessageRangeError(PqlabError, ValueError):
    """Message or blinding polynomial coefficients outside the allowed range."""


class UnknownParams(PqlabError, KeyError):
    """Usage error: a preset name, parameter values, flag combination or
    output path that is not accepted."""

    # KeyError.__str__ would quote the message
    __str__ = Exception.__str__


class FormatError(PqlabError, ValueError):
    """Key or ciphertext file failed to parse or verify."""
