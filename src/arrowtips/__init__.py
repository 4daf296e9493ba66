"""Stroke-width-parameterized arrow tips.

A catalog of arrow-tip definitions, each a pure function of the host stroke
width, plus attachment of tips to line/cubic paths, an arrow-spec string
parser, and a deterministic SVG backend.
"""

from .attach import (
    CubicSegment,
    DegeneratePathError,
    HostPath,
    LineSegment,
    PathTooShortError,
    decorate,
    end_tangent,
    path_length,
    placement,
    shorten,
)
from .catalog import (
    Extents,
    NoReversalError,
    Side,
    TipId,
    UnknownTipError,
    extents,
    lookup,
    program,
    registry,
    reverse_tip,
)
from .geometry import AffineTransform, Point, apply
from .pathmodel import (
    Action,
    Drawable,
    LineCap,
    LineJoin,
    ProgramError,
    RenderProgram,
    Scene,
    evaluate,
    mirror_x,
    mirror_y,
    transform_program,
)
from .specparser import ArrowSpec, SpecSyntaxError, TipSequenceError, format_spec, parse
from .svg import format_number, render_document, to_path_data

__version__ = "0.1.0"

__all__ = [
    "Action",
    "AffineTransform",
    "ArrowSpec",
    "CubicSegment",
    "DegeneratePathError",
    "Drawable",
    "Extents",
    "HostPath",
    "LineCap",
    "LineJoin",
    "LineSegment",
    "NoReversalError",
    "PathTooShortError",
    "Point",
    "ProgramError",
    "RenderProgram",
    "Scene",
    "Side",
    "SpecSyntaxError",
    "TipId",
    "TipSequenceError",
    "UnknownTipError",
    "apply",
    "decorate",
    "end_tangent",
    "evaluate",
    "extents",
    "format_number",
    "format_spec",
    "lookup",
    "mirror_x",
    "mirror_y",
    "parse",
    "path_length",
    "placement",
    "program",
    "registry",
    "render_document",
    "reverse_tip",
    "shorten",
    "to_path_data",
    "transform_program",
    "__version__",
]
