"""Prompt templates for the explainer/verifier/reconstructor roles.

Templates are plain text files with ``{DSL_DESCRIPTION}``, ``{PROGRAM}``,
``{EXPLANATION}``, and (for the k-shot prompt) ``{MAP_DESCRIPTION}``
placeholders.  Rendering is literal substitution, not ``str.format``, because
the templates and the substituted programs both contain braces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..resources import data_path


@dataclass(frozen=True)
class PromptBundle:
    """The prompt templates for Microlanguage policies."""

    dsl_description: str
    explainer_template: str
    reconstructor_template: str
    verifier_template: str
    kshot_template: str

    def render_explainer(self, program_source: str) -> str:
        return _render(
            self.explainer_template,
            dsl_description=self.dsl_description,
            program=program_source,
        )

    def render_reconstructor(self, explanation: str) -> str:
        return _render(
            self.reconstructor_template,
            dsl_description=self.dsl_description,
            explanation=explanation,
        )

    def render_verifier(self, program_source: str, explanation: str) -> str:
        return _render(
            self.verifier_template,
            dsl_description=self.dsl_description,
            program=program_source,
            explanation=explanation,
        )

    def render_kshot(self, map_description: str) -> str:
        return _render(
            self.kshot_template,
            dsl_description=self.dsl_description,
            map_description=map_description,
        )


def _render(
    template: str,
    *,
    dsl_description: str = "",
    program: str = "",
    explanation: str = "",
    map_description: str = "",
) -> str:
    rendered = template.replace("{DSL_DESCRIPTION}", dsl_description)
    rendered = rendered.replace("{PROGRAM}", program)
    rendered = rendered.replace("{EXPLANATION}", explanation)
    rendered = rendered.replace("{MAP_DESCRIPTION}", map_description)
    return rendered


def load_bundle(track: str = "microrts") -> PromptBundle:
    """Load the prompt templates shipped with the package.

    ``microrts`` is the only track: the runner scores Microlanguage policies.
    """

    if track != "microrts":
        raise ValueError(f"unknown track {track!r}; only 'microrts' has prompts")
    root = data_path("prompts")

    def read(role: str) -> str:
        return (root / f"microrts_{role}.txt").read_text(encoding="utf-8")

    return PromptBundle(
        dsl_description=read("dsl"),
        explainer_template=read("explainer"),
        reconstructor_template=read("reconstructor"),
        verifier_template=read("verifier"),
        kshot_template=read("kshot"),
    )


def load_map_description(map_name: str) -> str:
    """Load the natural-language description of a bundled map."""

    return data_path("prompts", f"map_{map_name}.txt").read_text(encoding="utf-8")


def extract_tag(text: str, tag: str) -> str | None:
    """Return the body of the first ``<tag>...</tag>`` block, or None."""

    match = re.search(
        rf"<{re.escape(tag)}>(.*?)</{re.escape(tag)}>", text, re.DOTALL
    )
    if match is None:
        return None
    return match.group(1).strip()
