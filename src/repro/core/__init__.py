"""Core federated-learning framework (servers, clients, algorithms, runners)."""

from .base import ADMMServer, BaseClient, BaseServer, ModelVectorizer
from .config import FLConfig, PrivacyConfig
from .exchange import PacketExchange
from .fedavg import FedAvgClient, FedAvgServer
from .iceadmm import ICEADMMClient, ICEADMMServer
from .iiadmm import IIADMMClient, IIADMMServer
from .metrics import Evaluator, evaluate
from .models import MLP, LogisticRegression, PaperCNN, build_model
from .registry import available_algorithms, get_algorithm, register_algorithm
from .runner import FederatedRunner, RoundResult, TrainingHistory, build_endpoints, build_federation

__all__ = [
    "FLConfig",
    "PrivacyConfig",
    "BaseServer",
    "ADMMServer",
    "BaseClient",
    "ModelVectorizer",
    "PacketExchange",
    "FedAvgServer",
    "FedAvgClient",
    "ICEADMMServer",
    "ICEADMMClient",
    "IIADMMServer",
    "IIADMMClient",
    "PaperCNN",
    "MLP",
    "LogisticRegression",
    "build_model",
    "evaluate",
    "Evaluator",
    "register_algorithm",
    "get_algorithm",
    "available_algorithms",
    "FederatedRunner",
    "RoundResult",
    "TrainingHistory",
    "build_endpoints",
    "build_federation",
]
