"""Synthetic provider planes for scale benchmarks.

Scale benchmarks need estates that span many independent control
planes, but hand-maintaining N provider catalogs would be busywork: a
synthetic plane *clones* the aws catalog under a new type prefix
(``syn0_vpc``, ``syn1_subnet``, ...), rewriting reference semantics and
id prefixes so each plane is a self-contained cloud with its own
regions, rate limits, RNG stream, and record store. ``CloudGateway``
routes purely on the type prefix, so any number of synthetic planes
compose with the real aws/azure ones on a shared clock.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List

from .aws.provider import aws_catalog
from .base import CloudAPIError, ControlPlane, parse_network
from .resources import AttributeSpec, ResourceTypeSpec, a


def _rename_type(rtype: str, prefix: str) -> str:
    return prefix + rtype[3:] if rtype.startswith("aws_") else rtype


def _clone_attr(attr: AttributeSpec, prefix: str) -> AttributeSpec:
    sem = attr.semantic
    if sem.startswith("ref:"):
        sem = "ref:" + _rename_type(sem[4:], prefix)
    elif sem.startswith("ref_list:"):
        sem = "ref_list:" + _rename_type(sem[9:], prefix)
    if sem == attr.semantic:
        return attr
    return dataclasses.replace(attr, semantic=sem)


def synthetic_catalog(prefix: str) -> List[ResourceTypeSpec]:
    """The aws catalog re-homed under ``prefix``.

    Every type gains a ``location`` attribute (azure-style region
    pinning) so workloads can stripe one plane across regions.
    """
    out: List[ResourceTypeSpec] = []
    for s in aws_catalog():
        attrs = {
            name: _clone_attr(attr, prefix) for name, attr in s.attributes.items()
        }
        if "location" not in attrs:
            attrs["location"] = a(
                "location", semantic="region", description="home region"
            )
        if s.name == "aws_dns_record":
            # free-form upstream pointer; workloads use it to express
            # cross-provider dependencies (another plane's lb dns_name)
            attrs["upstream"] = a("upstream", description="upstream endpoint")
        out.append(
            dataclasses.replace(
                s,
                name=_rename_type(s.name, prefix),
                provider=prefix,
                attributes=attrs,
                id_prefix=f"{prefix}-{s.id_prefix}",
            )
        )
    return out


class SyntheticControlPlane(ControlPlane):
    """One synthetic cloud: aws-shaped catalog, its own everything."""

    list_page_size = 25

    def __init__(self, prefix: str, **kwargs: Any):
        if not prefix or "_" in prefix:
            raise ValueError(
                f"synthetic prefix {prefix!r} must be non-empty and "
                f"underscore-free (types are routed on the part before "
                f"the first underscore)"
            )
        self.provider = prefix
        self._prefix = prefix
        kwargs.setdefault(
            "regions", [f"{prefix}-east-1", f"{prefix}-west-1"]
        )
        kwargs.setdefault("rate_limits", {"read": (20.0, 40), "write": (5.0, 10)})
        super().__init__(**kwargs)

    def _register_catalog(self) -> None:
        for s in synthetic_catalog(self._prefix):
            self.register_spec(s)

    # mirror the aws plane's network constraints so synthetic estates
    # exercise the same control-plane validation paths
    def validate_create(
        self, spec: ResourceTypeSpec, attrs: Dict[str, Any], region: str
    ) -> None:
        if spec.name == f"{self._prefix}_subnet":
            self._check_subnet_cidr(attrs)
        if spec.name == f"{self._prefix}_vpc":
            self._check_cidr_shape(attrs.get("cidr_block"))

    def _check_cidr_shape(self, value: Any) -> None:
        if value is None:
            return
        try:
            parse_network(str(value), strict=True)
        except ValueError:
            raise CloudAPIError(
                "InvalidParameterValue",
                f"Value '{value}' for parameter 'cidr_block' is invalid. "
                f"This is not a valid CIDR block.",
                resource_type=f"{self._prefix}_vpc",
                operation="create",
            )

    def _check_subnet_cidr(self, attrs: Dict[str, Any]) -> None:
        vpc_id = attrs.get("vpc_id")
        cidr = attrs.get("cidr_block")
        if not isinstance(vpc_id, str) or not isinstance(cidr, str):
            return
        vpc = self.records.get(vpc_id)
        if vpc is None:
            return  # reference check already produces NotFound
        try:
            subnet_net = parse_network(cidr, strict=True)
            vpc_net = parse_network(str(vpc.attrs.get("cidr_block")), strict=True)
        except ValueError:
            raise CloudAPIError(
                "InvalidParameterValue",
                f"Value '{cidr}' for parameter 'cidrBlock' is invalid.",
                resource_type=f"{self._prefix}_subnet",
                operation="create",
            )
        if not subnet_net.subnet_of(vpc_net):
            raise CloudAPIError(
                "InvalidSubnet.Range",
                f"The CIDR '{cidr}' is invalid for the given VPC.",
                resource_type=f"{self._prefix}_subnet",
                operation="create",
            )
        for rid in self.records.ids_linked(
            f"{self._prefix}_subnet", "vpc_id", vpc_id
        ):
            record = self.records[rid]
            other = parse_network(str(record.attrs.get("cidr_block")))
            if subnet_net.overlaps(other):
                raise CloudAPIError(
                    "InvalidSubnet.Conflict",
                    f"The CIDR '{cidr}' conflicts with another subnet.",
                    http_status=409,
                    resource_type=f"{self._prefix}_subnet",
                    operation="create",
                )
