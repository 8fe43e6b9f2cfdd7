"""Protocol conformance: RL401/RL402 — registered detectors define the protocol.

The batch pipeline, shard workers, and stream engine never hard-code a
detector class; they iterate registries. That only works while every
registered class actually provides the members the iterating engine
calls — a detector missing ``restore_state`` passes every test that
doesn't resume a checkpoint, then crashes a six-month watch run on day
170. These rules resolve the registry expressions to their classes (pure
AST, across files) and verify each class defines the full protocol.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.base import FileContext, ProjectIndex, ProjectRule, register
from repro.lint.findings import Finding


def _instantiated_class_names(node: ast.AST) -> List[str]:
    """Names called within *node*, in source order (candidate classes)."""
    return [
        call.func.id
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
    ]


def _self_attr_classes(tree: ast.Module) -> Dict[str, str]:
    """Map ``self.<attr>`` → class name for ``self.x = ClassName(...)``."""
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        if not isinstance(node.value.func, ast.Name):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                mapping[target.attr] = node.value.func.id
    return mapping


class _RegistryProtocolRule(ProjectRule):
    """Shared machinery: find the registry, resolve classes, check members."""

    #: Repo-relative path suffix of the module holding the registry.
    anchor_suffix: str = ""
    #: Name of the registry variable (plain or ``self.<name>`` attribute).
    anchor_name: str = ""
    required_members: Tuple[str, ...] = ()

    def registry_classes(self, ctx: FileContext) -> List[Tuple[str, ast.stmt]]:
        """(class name, registry stmt) for every class the registry holds."""
        raise NotImplementedError

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        ctx = index.find_file(self.anchor_suffix)
        if ctx is None:
            return
        seen: Set[str] = set()
        for class_name, stmt in self.registry_classes(ctx):
            if class_name in seen:
                continue
            seen.add(class_name)
            info = index.classes.get(class_name)
            if info is None:
                # Registered but not found in the scanned file set: either
                # the scan was partial (fine) or the class does not exist
                # (the import would fail long before lint matters).
                continue
            missing = sorted(set(self.required_members) - info.members)
            if missing:
                class_ctx = index.files.get(info.path)
                target = class_ctx if class_ctx is not None else ctx
                node = _AnchorNode(info.lineno, info.col)
                yield target.finding(
                    self,
                    node,
                    f"class {class_name} is registered in "
                    f"{self.anchor_name} but does not define: "
                    f"{', '.join(missing)} (required by every engine that "
                    "iterates the registry)",
                )

    def _find_assignments(self, ctx: FileContext) -> List[ast.stmt]:
        found: List[ast.stmt] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == self.anchor_name
                    ) or (
                        isinstance(target, ast.Attribute)
                        and target.attr == self.anchor_name
                    ):
                        found.append(node)
        return found


class _AnchorNode:
    """Minimal node stand-in carrying a location for Finding construction."""

    def __init__(self, lineno: int, col_offset: int) -> None:
        self.lineno = lineno
        self.col_offset = col_offset


@register
class BatchDetectorProtocolRule(_RegistryProtocolRule):
    """RL401: DETECTOR_REGISTRY build targets satisfy the Detector protocol."""

    code = "RL401"
    name = "batch-detector-protocol"
    rationale = (
        "MeasurementPipeline, the shard workers, and the stream "
        "verification path construct detectors through DETECTOR_REGISTRY "
        "build callables and then call detect() and read stats; a "
        "registered class missing either breaks every engine at once."
    )
    anchor_suffix = "repro/core/pipeline.py"
    anchor_name = "DETECTOR_REGISTRY"
    required_members = ("detect", "stats")

    def registry_classes(self, ctx: FileContext) -> List[Tuple[str, ast.stmt]]:
        out: List[Tuple[str, ast.stmt]] = []
        for stmt in self._find_assignments(ctx):
            value = stmt.value
            if value is None:
                continue
            for node in ast.walk(value):
                if isinstance(node, ast.Call):
                    # Detector construction happens inside the per-entry
                    # ``build`` callables; the spec wrapper class itself is
                    # instantiated at the top level and is not a detector.
                    for keyword in node.keywords:
                        if keyword.arg == "build":
                            out.extend(
                                (name, stmt)
                                for name in _instantiated_class_names(keyword.value)
                            )
        return out


@register
class StreamDetectorProtocolRule(_RegistryProtocolRule):
    """RL402: the stream engine's detector tuple satisfies the full protocol."""

    code = "RL402"
    name = "stream-detector-protocol"
    rationale = (
        "The stream engine dispatches, finalizes, checkpoints, and "
        "restores detectors purely through the uniform registry shape "
        "(name/event_type/register_certificate/consume/finalize/findings/"
        "stats/checkpoint_state/restore_state/after_resume); a wrapper "
        "missing one member works until the first checkpoint, resume or "
        "finalize touches it mid-collection."
    )
    anchor_suffix = "repro/stream/engine.py"
    anchor_name = "_detectors"
    required_members = (
        "name",
        "event_type",
        "register_certificate",
        "consume",
        "finalize",
        "findings",
        "stats",
        "checkpoint_state",
        "restore_state",
        "after_resume",
    )

    def registry_classes(self, ctx: FileContext) -> List[Tuple[str, ast.stmt]]:
        self_attrs = _self_attr_classes(ctx.tree)
        out: List[Tuple[str, ast.stmt]] = []
        for stmt in self._find_assignments(ctx):
            value = stmt.value
            if value is None:
                continue
            for node in ast.walk(value):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in self_attrs
                ):
                    out.append((self_attrs[node.attr], stmt))
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Name
                ):
                    out.append((node.func.id, stmt))
        return out
