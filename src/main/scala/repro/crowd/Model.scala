package repro.crowd

/** One crowd answer: worker `worker` assigned label set `labels` to `item`.
  *
  * Labels are 0-based indices into the dataset's label vocabulary and are
  * kept sorted and distinct. An absent (item, worker) pair means "no answer"
  * — empty answers are never materialised (x_iu = ∅ in the paper).
  */
final case class Answer(item: Int, worker: Int, labels: Array[Int]) {
  override def toString: String = s"Answer($item,$worker,${labels.mkString("{", ",", "}")})"
}

/** The taxonomy of crowd worker behaviours used throughout the paper (§2.1):
  * reliable / normal / sloppy workers and uniform / random spammers.
  */
sealed abstract class WorkerType(val name: String)
object WorkerType {
  case object Reliable extends WorkerType("reliable")
  case object Normal extends WorkerType("normal")
  case object Sloppy extends WorkerType("sloppy")
  case object UniformSpammer extends WorkerType("uniform-spammer")
  case object RandomSpammer extends WorkerType("random-spammer")
  val all: Seq[WorkerType] = Seq(Reliable, Normal, Sloppy, UniformSpammer, RandomSpammer)
}

/** A complete partial-agreement crowdsourcing dataset.
  *
  * @param name        dataset identifier (e.g. "image")
  * @param nItems      number of items I (the paper's "questions" actually posted)
  * @param nLabels     label vocabulary size C
  * @param nWorkers    number of workers U
  * @param truth       ground-truth label set per item (sorted label indices)
  * @param answers     all worker answers (the sparse answer matrix M)
  * @param workerTypes generating type per worker (simulation metadata; never
  *                    shown to any aggregation method — used only to verify
  *                    worker-community experiments)
  */
final case class CrowdDataset(
    name: String,
    nItems: Int,
    nLabels: Int,
    nWorkers: Int,
    truth: Array[Array[Int]],
    answers: Vector[Answer],
    workerTypes: Array[WorkerType]) {

  /** Total number of answers (worker-item pairs with a non-empty label set). */
  def nAnswers: Int = answers.size

  /** Answers grouped by worker index. */
  lazy val byWorker: Map[Int, Vector[Answer]] = answers.groupBy(_.worker)

  /** Keep only a deterministic fraction of answers (sparsity experiments). */
  def sample(fraction: Double, seed: Long): CrowdDataset = {
    val rng = new scala.util.Random(seed)
    copy(answers = answers.filter(_ => rng.nextDouble() < fraction))
  }
}
