"""Data module: partial-response pool and experience buffer (§3.1)."""

from .experience_buffer import ExperienceBuffer
from .partial_response_pool import PartialResponsePool

__all__ = [
    "ExperienceBuffer",
    "PartialResponsePool",
]
