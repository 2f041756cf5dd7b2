"""Graph relabelling shared by the property suites' metamorphic checks."""

from repro.graph.objects import DataObject
from repro.graph.taskgraph import TaskGraph
from repro.graph.tasks import Task


def relabel(g, tmap, omap, weight=None):
    """Copy ``g`` with renamed tasks/objects (same program order) and,
    given ``weight(task)``, new task weights."""
    h = TaskGraph()
    for o in g.objects():
        h.add_object(DataObject(omap[o.name], o.size))
    for t in g.tasks():
        h.add_task(Task(
            tmap[t.name],
            tuple(omap[r] for r in t.reads),
            tuple(omap[w] for w in t.writes),
            t.weight if weight is None else weight(t),
            t.commute,
        ))
    for u, v, objs in g.edges():
        if objs:
            for ob in objs:
                h.add_edge(tmap[u], tmap[v], omap[ob])
        else:
            h.add_edge(tmap[u], tmap[v])
    return h.freeze()
