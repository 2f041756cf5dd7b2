"""The paper's primary contribution: memory model, memory-efficient
scheduling heuristics (RCP / MPO / DTS) and MAP planning.

Typical flow::

    placement  = cyclic_placement(graph, p)
    assignment = owner_compute_assignment(graph, placement)
    schedule   = mpo_order(graph, placement, assignment)
    profile    = analyze_memory(schedule)
    plan       = plan_maps(profile, capacity)
"""

from .placement import (
    Placement,
    block_placement,
    cyclic_placement,
    derive_placement,
    owner_compute_assignment,
    perm_vola_sets,
    placement_from_dict,
    validate_owner_compute,
)
from .schedule import CommModel, GanttChart, Schedule, UNIT_COMM, gantt, serial_schedule
from .liveness import (
    MemoryProfile,
    ProcessorMemoryProfile,
    analyze_memory,
    mem_req_of_task,
    min_mem,
)
from .index import GraphIndex, MappingIndex, graph_index, mapping_index
from .rcp import rcp_order, rcp_priorities
from .mpo import MemoryPriorityPolicy, mpo_order
from .dcg import DCG, build_dcg, shared_dcg, slice_volatile_space, task_association
from .dts import dts_order, dts_space_bound, merge_slices
from .maps import MapPlan, MapPoint, plan_maps, unconstrained_plan
from .clustering import colocate_writers, dsc_cluster, dsc_map, lpt_map_clusters
from .depmem import (
    RecordSizes,
    dependence_memory_report,
    distributed_dependence_memory,
    replicated_dependence_memory,
)
from .dynamic import etf_schedule
from .listsched import BoundPolicy, run_list_scheduler
from .treesched import tree_order
from .viz import gantt_svg, memory_svg

__all__ = [
    "BoundPolicy",
    "CommModel",
    "DCG",
    "GanttChart",
    "GraphIndex",
    "MapPlan",
    "MapPoint",
    "MappingIndex",
    "MemoryPriorityPolicy",
    "MemoryProfile",
    "Placement",
    "ProcessorMemoryProfile",
    "RecordSizes",
    "dependence_memory_report",
    "distributed_dependence_memory",
    "replicated_dependence_memory",
    "Schedule",
    "UNIT_COMM",
    "analyze_memory",
    "block_placement",
    "build_dcg",
    "colocate_writers",
    "cyclic_placement",
    "derive_placement",
    "dsc_cluster",
    "dsc_map",
    "dts_order",
    "dts_space_bound",
    "etf_schedule",
    "gantt",
    "gantt_svg",
    "graph_index",
    "lpt_map_clusters",
    "mapping_index",
    "memory_svg",
    "mem_req_of_task",
    "merge_slices",
    "min_mem",
    "mpo_order",
    "owner_compute_assignment",
    "perm_vola_sets",
    "placement_from_dict",
    "plan_maps",
    "rcp_order",
    "rcp_priorities",
    "run_list_scheduler",
    "serial_schedule",
    "shared_dcg",
    "slice_volatile_space",
    "task_association",
    "tree_order",
    "unconstrained_plan",
    "validate_owner_compute",
]
