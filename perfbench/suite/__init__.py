"""The benchmark's workloads, by the name ``--workload`` takes."""

from suite.batch_ingest import BatchIngest
from suite.corpus_query import CorpusQuery
from suite.edit_requery import EditRequery
from suite.paper_curves import PaperCurves

WORKLOADS = {
    workload.name: workload
    for workload in (CorpusQuery, PaperCurves, EditRequery, BatchIngest)
}
